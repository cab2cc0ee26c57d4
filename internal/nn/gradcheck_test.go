package nn

import (
	"math"
	"math/rand"
	"testing"

	"mobiledl/internal/tensor"
)

// numericalGrad perturbs each parameter element and measures the change in
// lossFn to approximate dLoss/dParam with central differences.
func numericalGrad(t *testing.T, p *Param, lossFn func() float64) *tensor.Matrix {
	t.Helper()
	const h = 1e-5
	grad := tensor.New(p.Value.Rows(), p.Value.Cols())
	data := p.Value.Data()
	gd := grad.Data()
	for i := range data {
		orig := data[i]
		data[i] = orig + h
		lp := lossFn()
		data[i] = orig - h
		lm := lossFn()
		data[i] = orig
		gd[i] = (lp - lm) / (2 * h)
	}
	return grad
}

func maxAbsDiff(a, b *tensor.Matrix) float64 {
	var m float64
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if d := math.Abs(ad[i] - bd[i]); d > m {
			m = d
		}
	}
	return m
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(rng, 4, 3)
	loss := NewSoftmaxCrossEntropy()
	x := tensor.RandNormal(rng, 5, 4, 0, 1)
	y, err := OneHot([]int{0, 1, 2, 1, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}

	lossFn := func() float64 {
		out, err := layer.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		l, err := loss.Forward(out, y)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	ZeroGrads(layer.Params())
	lossFn()
	g, err := loss.Backward()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := layer.Backward(g); err != nil {
		t.Fatal(err)
	}

	for _, p := range layer.Params() {
		num := numericalGrad(t, p, lossFn)
		if d := maxAbsDiff(p.Grad, num); d > 1e-6 {
			t.Errorf("param %s analytic/numeric gradient diff %v", p.Name, d)
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := NewSequential(
		NewDense(rng, 3, 6),
		NewTanh(),
		NewDense(rng, 6, 4),
		NewReLU(),
		NewDense(rng, 4, 2),
	)
	loss := NewSoftmaxCrossEntropy()
	x := tensor.RandNormal(rng, 4, 3, 0, 1)
	y, _ := OneHot([]int{0, 1, 1, 0}, 2)

	lossFn := func() float64 {
		out, err := model.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		l, err := loss.Forward(out, y)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	ZeroGrads(model.Params())
	lossFn()
	g, _ := loss.Backward()
	if _, err := model.Backward(g); err != nil {
		t.Fatal(err)
	}
	for _, p := range model.Params() {
		num := numericalGrad(t, p, lossFn)
		if d := maxAbsDiff(p.Grad, num); d > 1e-5 {
			t.Errorf("param %s analytic/numeric gradient diff %v", p.Name, d)
		}
	}
}

func TestGRUGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gru := NewGRU(rng, 3, 4)
	head := NewDense(rng, 4, 2)
	loss := NewSoftmaxCrossEntropy()
	seq := tensor.RandNormal(rng, 6, 3, 0, 1)
	y, _ := OneHot([]int{1}, 2)

	lossFn := func() float64 {
		h, err := gru.ForwardSeq(seq)
		if err != nil {
			t.Fatal(err)
		}
		out, err := head.Forward(h, true)
		if err != nil {
			t.Fatal(err)
		}
		l, err := loss.Forward(out, y)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	allParams := append(gru.Params(), head.Params()...)
	ZeroGrads(allParams)
	lossFn()
	g, _ := loss.Backward()
	dh, err := head.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gru.BackwardLast(dh); err != nil {
		t.Fatal(err)
	}
	for _, p := range allParams {
		num := numericalGrad(t, p, lossFn)
		if d := maxAbsDiff(p.Grad, num); d > 1e-5 {
			t.Errorf("param %s analytic/numeric gradient diff %v", p.Name, d)
		}
	}
}

func TestGRUInputGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gru := NewGRU(rng, 2, 3)
	seq := tensor.RandNormal(rng, 4, 2, 0, 1)
	// Loss = sum of final hidden state, so dLast is all ones.
	lossFn := func() float64 {
		h, err := gru.ForwardSeq(seq)
		if err != nil {
			t.Fatal(err)
		}
		return h.Sum()
	}
	ZeroGrads(gru.Params())
	lossFn()
	dLast := tensor.New(1, 3)
	dLast.Fill(1)
	dSeq, err := gru.BackwardLast(dLast)
	if err != nil {
		t.Fatal(err)
	}
	// Numerical input gradient.
	const h = 1e-5
	data := seq.Data()
	for i := range data {
		orig := data[i]
		data[i] = orig + h
		lp := lossFn()
		data[i] = orig - h
		lm := lossFn()
		data[i] = orig
		num := (lp - lm) / (2 * h)
		if d := math.Abs(num - dSeq.Data()[i]); d > 1e-6 {
			t.Fatalf("input grad element %d: analytic %v numeric %v", i, dSeq.Data()[i], num)
		}
	}
}
