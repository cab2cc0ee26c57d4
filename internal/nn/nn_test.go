package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mobiledl/internal/tensor"
)

func TestOneHot(t *testing.T) {
	y, err := OneHot([]int{2, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0, 2) != 1 || y.At(1, 0) != 1 || y.Sum() != 2 {
		t.Fatalf("OneHot wrong: %v", y)
	}
	if _, err := OneHot([]int{3}, 3); err == nil {
		t.Fatal("want error for out-of-range label")
	}
}

func TestSigmoidBoundsProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		s := Sigmoid(v)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGRUHiddenStateBoundedProperty(t *testing.T) {
	// GRU hidden state is a convex combination of the previous state (which
	// starts at 0) and a tanh candidate, so |h| <= 1 always.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gru := NewGRU(rng, 3, 5)
		seq := tensor.RandNormal(rng, 1+rng.Intn(10), 3, 0, 3)
		h, err := gru.ForwardSeq(seq)
		if err != nil {
			return false
		}
		for _, v := range h.Data() {
			if math.Abs(v) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGRURejectsWrongDim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gru := NewGRU(rng, 3, 4)
	if _, err := gru.ForwardSeq(tensor.New(5, 2)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
	if _, err := gru.ForwardSeq(tensor.New(0, 3)); !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("want ErrShape for empty sequence, got %v", err)
	}
}

func TestBackwardBeforeForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 2, 2)
	if _, err := d.Backward(tensor.New(1, 2)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("want ErrNotReady, got %v", err)
	}
	g := NewGRU(rng, 2, 2)
	if _, err := g.BackwardLast(tensor.New(1, 2)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("want ErrNotReady, got %v", err)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout(rng, 0.5)
	x := tensor.New(10, 10)
	x.Fill(1)
	evalOut, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !evalOut.Equal(x, 0) {
		t.Fatal("dropout must be identity at eval time")
	}
	trainOut, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range trainOut.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // 1 / keep-prob scaling
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros == 0 || zeros == trainOut.Size() {
		t.Fatalf("dropout zeroed %d of %d values; expected a mixture", zeros, trainOut.Size())
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := NewDropout(rng, 0.3)
	x := tensor.New(200, 200)
	x.Fill(1)
	out, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if m := out.Mean(); math.Abs(m-1) > 0.02 {
		t.Fatalf("inverted dropout mean %v, want ~1", m)
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	loss := NewSoftmaxCrossEntropy()
	// Uniform logits over 4 classes -> loss = ln(4).
	pred := tensor.New(1, 4)
	y, _ := OneHot([]int{2}, 4)
	l, err := loss.Forward(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-math.Log(4)) > 1e-9 {
		t.Fatalf("loss = %v, want ln(4) = %v", l, math.Log(4))
	}
}

func TestSequentialPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewSequential(NewDense(rng, 2, 3))
	preds, err := model.Predict(tensor.RandNormal(rng, 5, 2, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("got %d predictions, want 5", len(preds))
	}
	probs, err := model.PredictProba(tensor.RandNormal(rng, 5, 2, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < probs.Rows(); i++ {
		var s float64
		for _, v := range probs.Row(i) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d probabilities sum to %v", i, s)
		}
	}
}

func TestCopyWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewSequential(NewDense(rng, 3, 2))
	b := NewSequential(NewDense(rng, 3, 2))
	if err := CopyWeights(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		if !b.Params()[i].Value.Equal(p.Value, 0) {
			t.Fatal("weights not copied")
		}
	}
	c := NewSequential(NewDense(rng, 4, 2))
	if err := CopyWeights(c.Params(), a.Params()); err == nil {
		t.Fatal("want shape error copying mismatched weights")
	}
}

func TestTrainConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewSequential(NewDense(rng, 2, 2))
	x := tensor.New(4, 2)
	y := tensor.New(4, 2)
	if _, err := Train(model, x, y, TrainConfig{}); err == nil {
		t.Fatal("want validation error for zero config")
	}
}

func TestParamAccumulate(t *testing.T) {
	p := NewParam("p", tensor.New(2, 2))
	g, _ := tensor.FromSlice(2, 2, []float64{1, 1, 1, 1})
	if err := p.AccumulateGrad(g); err != nil {
		t.Fatal(err)
	}
	if err := p.AccumulateGrad(g); err != nil {
		t.Fatal(err)
	}
	if p.Grad.Sum() != 8 {
		t.Fatalf("grad sum %v, want 8", p.Grad.Sum())
	}
	p.ZeroGrad()
	if p.Grad.Sum() != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
	if err := p.AccumulateGrad(tensor.New(1, 1)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewSequential(NewDense(rng, 10, 5), NewReLU(), NewDense(rng, 5, 2))
	// 10*5 + 5 + 5*2 + 2 = 67
	if n := NumParams(model.Params()); n != 67 {
		t.Fatalf("NumParams = %d, want 67", n)
	}
}

// TestReLUMatchesMathMax: the branch in relu is math.Max(0, v) bit for bit at
// every edge — NaN, both zeros, both infinities, the smallest denormals.
func TestReLUMatchesMathMax(t *testing.T) {
	fn := NewReLU().fn
	for _, v := range []float64{
		math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1, -1,
	} {
		got, want := fn(v), math.Max(0, v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("relu(%v) = %x, math.Max(0, v) = %x", v, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestBatchedForwardEqualsRowByRow is the serving guarantee that batch
// composition never changes an answer: a 32-row forward whose first matmul is
// past tensor's work threshold (fan-out, and the vector kernel where there is
// one) equals 32 one-row forwards, all under it, bit for bit.
func TestBatchedForwardEqualsRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewSequential(NewDense(rng, 128, 512), NewReLU(), NewDense(rng, 512, 10))
	x := tensor.RandNormal(rng, 32, 128, 0, 1)
	batched, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows(); i++ {
		row, err := x.SliceRows(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		one, err := net.Forward(row, false)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range one.Row(0) {
			if got := batched.At(i, j); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("row %d logit %d: batched %x, alone %x", i, j, math.Float64bits(got), math.Float64bits(v))
			}
		}
	}
}
