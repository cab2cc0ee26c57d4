package privacy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

func TestMechanismValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(2, 2)
	if _, err := ClipL2(m, 0); !errors.Is(err, ErrBudget) {
		t.Fatal("want ErrBudget for clip bound 0")
	}
	if _, err := Nullification(rng, m, 2); !errors.Is(err, ErrBudget) {
		t.Fatal("want ErrBudget for rate 2")
	}
}

func TestClipL2(t *testing.T) {
	m, _ := tensor.FromSlice(1, 2, []float64{3, 4})
	pre, err := ClipL2(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pre != 5 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if n := m.FrobeniusNorm(); math.Abs(n-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", n)
	}
	// Under the bound: untouched.
	m2, _ := tensor.FromSlice(1, 2, []float64{0.3, 0.4})
	if _, err := ClipL2(m2, 1); err != nil {
		t.Fatal(err)
	}
	if m2.At(0, 0) != 0.3 {
		t.Fatal("clip changed an in-bound matrix")
	}
}

func TestNullificationRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := tensor.New(100, 100)
	m.Fill(1)
	count, err := Nullification(rng, m, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(count) / 10000
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("nullified fraction %v, want ~0.3", frac)
	}
	if got := 10000 - int(m.Sum()); got != count {
		t.Fatalf("count %d disagrees with zeroed cells %d", count, got)
	}
}

func TestAccountantEpsilonMonotoneInSteps(t *testing.T) {
	a, err := NewMomentsAccountant(1.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i := 0; i < 5; i++ {
		a.AccumulateSteps(100)
		eps, err := a.Epsilon(1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if eps <= prev {
			t.Fatalf("epsilon not increasing: %v after %d steps (prev %v)", eps, a.Steps(), prev)
		}
		prev = eps
	}
}

func TestAccountantEpsilonDecreasesWithSigma(t *testing.T) {
	eps := func(sigma float64) float64 {
		a, err := NewMomentsAccountant(sigma, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		a.AccumulateSteps(1000)
		e, err := a.Epsilon(1e-5)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if !(eps(0.5) > eps(1.0) && eps(1.0) > eps(2.0) && eps(2.0) > eps(4.0)) {
		t.Fatalf("epsilon not decreasing in sigma: %v %v %v %v", eps(0.5), eps(1.0), eps(2.0), eps(4.0))
	}
}

func TestAccountantBeatsStrongComposition(t *testing.T) {
	// The point of the moments accountant [20]: for many steps at small q it
	// yields a much smaller epsilon than advanced composition.
	a, _ := NewMomentsAccountant(2.0, 0.01)
	steps := 10000
	a.AccumulateSteps(steps)
	momentsEps, err := a.Epsilon(1e-5)
	if err != nil {
		t.Fatal(err)
	}
	// Per-step epsilon for the same mechanism via the classical Gaussian
	// bound at sensitivity q (subsampled), roughly eps0 = q * sqrt(2 ln(1.25/δ)) / σ.
	eps0 := 0.01 * math.Sqrt(2*math.Log(1.25/1e-5)) / 2.0
	strongEps, err := StrongCompositionEpsilon(eps0, steps, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if momentsEps >= strongEps {
		t.Fatalf("moments accountant (%v) not tighter than strong composition (%v)", momentsEps, strongEps)
	}
}

func TestAccountantValidation(t *testing.T) {
	if _, err := NewMomentsAccountant(0, 0.1); !errors.Is(err, ErrBudget) {
		t.Fatal("want ErrBudget for sigma=0")
	}
	if _, err := NewMomentsAccountant(1, 0); !errors.Is(err, ErrBudget) {
		t.Fatal("want ErrBudget for q=0")
	}
	a, _ := NewMomentsAccountant(1, 0.5)
	if _, err := a.Epsilon(0); !errors.Is(err, ErrBudget) {
		t.Fatal("want ErrBudget for delta=0")
	}
	if eps, err := a.Epsilon(1e-5); err != nil || eps != 0 {
		t.Fatalf("zero steps should cost zero epsilon, got %v (%v)", eps, err)
	}
}

func TestAccountantEpsilonIncreasesWithQProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q1 := 0.001 + 0.05*rng.Float64()
		q2 := q1 * (1.5 + rng.Float64())
		if q2 > 1 {
			return true
		}
		e := func(q float64) float64 {
			a, err := NewMomentsAccountant(2, q)
			if err != nil {
				return math.NaN()
			}
			a.AccumulateSteps(500)
			eps, err := a.Epsilon(1e-5)
			if err != nil {
				return math.NaN()
			}
			return eps
		}
		return e(q2) >= e(q1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDPFedAvgEndToEnd(t *testing.T) {
	fb, err := data.GenerateFedBench(data.FedBenchConfig{Samples: 600, Classes: 4, Dim: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	shards, err := data.ShardIID(rng, trX, trY, 10)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (*nn.Sequential, error) {
		r := rand.New(rand.NewSource(42))
		return nn.NewSequential(nn.NewDense(r, 8, 16), nn.NewReLU(), nn.NewDense(r, 16, 4)), nil
	}
	res, err := RunDPFedAvg(factory, shards, 4, DPFedAvgConfig{
		Rounds:      20,
		P:           0.5,
		LocalEpochs: 3,
		LocalBatch:  16,
		LocalLR:     0.2,
		Clip:        5.0,
		Sigma:       0.5,
		Seed:        3,
		Eval:        federated.AccuracyEval(teX, teY),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := res.Stats[len(res.Stats)-1]
	if final.Accuracy < 0.7 {
		t.Fatalf("DP-FedAvg accuracy %v, want >= 0.7", final.Accuracy)
	}
	eps, err := res.Accountant.Epsilon(1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Fatalf("epsilon %v", eps)
	}
}

// TestDPFedAvgStep pins the shared server step: a client's clipped delta has
// joint norm at most Clip, the average divides by the fixed denominator and
// not by the realised cohort, the noise std is sigma*clip/denom, and sigma=0
// adds none.
func TestDPFedAvgStep(t *testing.T) {
	const clip, denom = 2.0, 4.0
	newGlobal := func() []*tensor.Matrix {
		return []*tensor.Matrix{tensor.New(100, 100), tensor.New(1, 100)}
	}
	// shifted is a client whose weights sit at global + c in every element.
	shifted := func(global []*tensor.Matrix, c float64) federated.Update {
		w := make([]*tensor.Matrix, len(global))
		for i, g := range global {
			w[i] = g.Clone()
			for j := range w[i].Data() {
				w[i].Data()[j] += c
			}
		}
		return federated.Update{ClientResult: federated.ClientResult{Weights: w, N: 1, Loss: c}}
	}
	jointNorm := func(ms []*tensor.Matrix) float64 {
		var sq float64
		for _, m := range ms {
			for _, v := range m.Data() {
				sq += v * v
			}
		}
		return math.Sqrt(sq)
	}
	elems := 100*100 + 100

	// One oversized client (delta norm 100.5): the step moves the global by
	// exactly clip/denom.
	global := newGlobal()
	loss, err := DPFedAvgStep(nil, global, []federated.Update{shifted(global, 1)}, clip, 0, denom)
	if err != nil {
		t.Fatal(err)
	}
	if got := jointNorm(global) * denom; math.Abs(got-clip) > 1e-9 {
		t.Fatalf("clipped delta norm %v, want %v", got, clip)
	}
	if loss != 1 {
		t.Fatalf("mean loss %v, want 1", loss)
	}

	// Two small clients (delta norm ~0.1 each, unclipped): the sum is divided
	// by denom=4, not by the two that showed up.
	global = newGlobal()
	small := 0.001
	ups := []federated.Update{shifted(global, small), shifted(global, small)}
	if _, err := DPFedAvgStep(nil, global, ups, clip, 0, denom); err != nil {
		t.Fatal(err)
	}
	for _, g := range global {
		for _, v := range g.Data() {
			if math.Abs(v-2*small/denom) > 1e-15 {
				t.Fatalf("element %v, want %v (fixed denominator)", v, 2*small/denom)
			}
		}
	}

	// Noise alone: an empty cohort at sigma=1.5 releases N(0, (sigma*clip/denom)^2).
	global = newGlobal()
	if _, err := DPFedAvgStep(rand.New(rand.NewSource(1)), global, nil, clip, 1.5, denom); err != nil {
		t.Fatal(err)
	}
	wantStd := 1.5 * clip / denom
	if got := jointNorm(global) / math.Sqrt(float64(elems)); math.Abs(got-wantStd) > 0.05*wantStd {
		t.Fatalf("noise std %v, want %v", got, wantStd)
	}

	// sigma=0 adds nothing (and needs no rng).
	global = newGlobal()
	if _, err := DPFedAvgStep(nil, global, nil, clip, 0, denom); err != nil {
		t.Fatal(err)
	}
	if jointNorm(global) != 0 {
		t.Fatal("sigma=0 step moved the global")
	}

	// A failed update is refused before the global moves.
	boom := errors.New("boom")
	bad := []federated.Update{shifted(global, 1), {Client: 3, Err: boom}}
	if _, err := DPFedAvgStep(nil, global, bad, clip, 0, denom); !errors.Is(err, boom) {
		t.Fatalf("failed update: %v", err)
	}
	if jointNorm(global) != 0 {
		t.Fatal("refused step moved the global")
	}
}

func TestDPFedAvgValidation(t *testing.T) {
	factory := func() (*nn.Sequential, error) {
		r := rand.New(rand.NewSource(1))
		return nn.NewSequential(nn.NewDense(r, 2, 2)), nil
	}
	if _, err := RunDPFedAvg(factory, nil, 2, DPFedAvgConfig{
		Rounds: 1, P: 0.5, LocalEpochs: 1, LocalLR: 0.1, Clip: 1,
	}); !errors.Is(err, ErrBudget) {
		t.Fatal("want ErrBudget for no clients")
	}
}
