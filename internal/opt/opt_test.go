package opt

import (
	"errors"
	"math/rand"
	"testing"

	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// quadParam builds a single parameter initialized at x0 whose loss is
// 0.5*||x||^2, i.e. grad = x. Every sane optimizer must drive it to 0.
func quadParam(x0 float64) *nn.Param {
	v, _ := tensor.FromSlice(1, 3, []float64{x0, -x0, x0 / 2})
	return nn.NewParam("q", v)
}

func runQuadratic(t *testing.T, o nn.Optimizer, steps int) float64 {
	t.Helper()
	p := quadParam(5)
	for i := 0; i < steps; i++ {
		p.ZeroGrad()
		if err := p.AccumulateGrad(p.Value); err != nil {
			t.Fatal(err)
		}
		if err := o.Step([]*nn.Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	return p.Value.FrobeniusNorm()
}

func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	tests := []struct {
		name  string
		o     nn.Optimizer
		steps int
		tol   float64
	}{
		{"sgd", NewSGD(0.1), 200, 1e-2},
		{"adam", NewAdam(0.1), 500, 1e-2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if norm := runQuadratic(t, tc.o, tc.steps); norm > tc.tol {
				t.Fatalf("%s left ||x|| = %v after %d steps", tc.name, norm, tc.steps)
			}
		})
	}
}

func TestBadHyperparameters(t *testing.T) {
	p := quadParam(1)
	for _, o := range []nn.Optimizer{
		NewSGD(0), NewSGD(-1),
		&Adam{LR: 0.1, Beta1: 1.5},
	} {
		if err := o.Step([]*nn.Param{p}); !errors.Is(err, ErrBadHyper) {
			t.Fatalf("%T: want ErrBadHyper, got %v", o, err)
		}
	}
}

func TestTrainMLPOnBlobs(t *testing.T) {
	// Integration: a 2-layer MLP must separate two well-separated Gaussian
	// blobs to >95% train accuracy.
	rng := rand.New(rand.NewSource(7))
	n := 200
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		cx := float64(c)*4 - 2
		x.Set(i, 0, cx+rng.NormFloat64()*0.5)
		x.Set(i, 1, cx+rng.NormFloat64()*0.5)
	}
	y, err := nn.OneHot(labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := nn.NewSequential(
		nn.NewDense(rng, 2, 8),
		nn.NewReLU(),
		nn.NewDense(rng, 8, 2),
	)
	losses, err := nn.Train(model, x, y, nn.TrainConfig{
		Epochs:    30,
		BatchSize: 16,
		Optimizer: NewAdam(0.01),
		Loss:      nn.NewSoftmaxCrossEntropy(),
		Rng:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	preds, err := model.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("train accuracy %v < 0.95", acc)
	}
}
