package split

import (
	"errors"
	"math/rand"
	"testing"

	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
	"mobiledl/internal/tensor"
)

// buildCascade trains both the cloud network (noisy) and a small local exit
// classifier over the shared frozen local representation.
func buildCascade(t *testing.T, threshold float64) (*EarlyExit, *dataSet) {
	t.Helper()
	fb, err := data.GenerateFedBench(data.FedBenchConfig{Samples: 600, Classes: 3, Dim: 10, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := buildPipeline(t, 0.15, 0.3)
	if _, err := p.TrainCloud(trX, trY, 3, TrainConfig{
		Epochs: 25, BatchSize: 32, Optimizer: opt.NewAdam(0.01),
		Rng: rand.New(rand.NewSource(62)), NoisyFraction: 1,
	}); err != nil {
		t.Fatal(err)
	}
	exitRng := rand.New(rand.NewSource(63))
	exit := nn.NewSequential(nn.NewDense(exitRng, 6, 3))
	cascade, err := NewEarlyExit(p, exit, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if err := cascade.TrainExit(trX, trY, 3, TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: opt.NewAdam(0.01),
		Rng: rand.New(rand.NewSource(64)),
	}); err != nil {
		t.Fatal(err)
	}
	return cascade, &dataSet{teX: teX, teY: teY}
}

type dataSet struct {
	teX *tensor.Matrix
	teY []int
}

func TestEarlyExitValidation(t *testing.T) {
	p, _ := buildPipeline(t, 0, 0)
	rng := rand.New(rand.NewSource(1))
	exit := nn.NewSequential(nn.NewDense(rng, 6, 3))
	if _, err := NewEarlyExit(nil, exit, 0.5); !errors.Is(err, ErrConfig) {
		t.Fatal("want ErrConfig for nil pipeline")
	}
	if _, err := NewEarlyExit(p, nil, 0.5); !errors.Is(err, ErrConfig) {
		t.Fatal("want ErrConfig for nil exit")
	}
	if _, err := NewEarlyExit(p, exit, 1.5); !errors.Is(err, ErrConfig) {
		t.Fatal("want ErrConfig for threshold > 1")
	}
	cascade, err := NewEarlyExit(p, exit, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cascade.TrainExit(nil, nil, 3, TrainConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatal("want ErrConfig for zero train config")
	}
}

func TestEarlyExitThresholdControlsOffload(t *testing.T) {
	low, ds := buildCascade(t, 0.4)
	high, _ := buildCascade(t, 0.99)
	rng := rand.New(rand.NewSource(65))
	lowStats, err := low.Evaluate(rng, ds.teX, ds.teY)
	if err != nil {
		t.Fatal(err)
	}
	highStats, err := high.Evaluate(rand.New(rand.NewSource(65)), ds.teX, ds.teY)
	if err != nil {
		t.Fatal(err)
	}
	if lowStats.LocalFraction <= highStats.LocalFraction {
		t.Fatalf("lower threshold should exit locally more: %v vs %v",
			lowStats.LocalFraction, highStats.LocalFraction)
	}
	if lowStats.LocalExits+lowStats.Offloaded != lowStats.Total {
		t.Fatal("exit accounting inconsistent")
	}
}

func TestEarlyExitAccuracyReasonable(t *testing.T) {
	cascade, ds := buildCascade(t, 0.75)
	stats, err := cascade.Evaluate(rand.New(rand.NewSource(66)), ds.teX, ds.teY)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accuracy < 0.7 {
		t.Fatalf("cascade accuracy %v", stats.Accuracy)
	}
	if stats.LocalFraction == 0 {
		t.Fatal("cascade never exited locally at threshold 0.75")
	}
}

func TestExitLocallyIntoExposesConfidences(t *testing.T) {
	cascade, ds := buildCascade(t, 0.75)
	rep, err := cascade.Pipeline.TransformClean(ds.teX)
	if err != nil {
		t.Fatal(err)
	}
	probs := tensor.New(rep.Rows(), cascade.ExitClasses())
	preds, offload, err := cascade.ExitLocallyInto(probs, rep)
	if err != nil {
		t.Fatal(err)
	}
	// Must agree with the scratch-owning wrapper.
	preds2, offload2, err := cascade.ExitLocally(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(preds2) || len(offload) != len(offload2) {
		t.Fatalf("wrapper disagrees: %d/%d preds, %d/%d offloads",
			len(preds), len(preds2), len(offload), len(offload2))
	}
	offloaded := make(map[int]bool, len(offload))
	for _, i := range offload {
		offloaded[i] = true
	}
	for i, p := range preds {
		if p != preds2[i] {
			t.Fatalf("row %d: preds diverge %d vs %d", i, p, preds2[i])
		}
		if p != probs.ArgMaxRow(i) {
			t.Fatalf("row %d: pred %d is not the probs argmax %d", i, p, probs.ArgMaxRow(i))
		}
		conf := probs.At(i, p)
		if offloaded[i] != (conf < cascade.Threshold) {
			t.Fatalf("row %d: confidence %v vs threshold %v, offloaded=%v",
				i, conf, cascade.Threshold, offloaded[i])
		}
		sum := 0.0
		for _, v := range probs.Row(i) {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d: softmax sums to %v", i, sum)
		}
	}
}

// The whole-cascade helpers below exist for the tests: serving runs the
// cascade's halves itself (serve.CascadeBackend), and these compose the same
// halves — TransformClean, ExitLocallyInto, Perturb — end to end.

// ExitStats summarizes one cascade evaluation.
type ExitStats struct {
	Total      int
	LocalExits int
	Offloaded  int
	Accuracy   float64
	// LocalFraction is LocalExits / Total.
	LocalFraction float64
}

// Evaluate runs the cascade over labeled data and reports accuracy plus the
// local-exit fraction (the communication saving vs always offloading).
func (e *EarlyExit) Evaluate(rng *rand.Rand, x *tensor.Matrix, labels []int) (ExitStats, error) {
	preds, local, err := e.Predict(rng, x)
	if err != nil {
		return ExitStats{}, err
	}
	stats := ExitStats{Total: len(preds)}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
		if local[i] {
			stats.LocalExits++
		}
	}
	stats.Offloaded = stats.Total - stats.LocalExits
	stats.Accuracy = float64(correct) / float64(stats.Total)
	stats.LocalFraction = float64(stats.LocalExits) / float64(stats.Total)
	return stats, nil
}

// Predict classifies one batch through the cascade, reporting per-sample
// predictions and where each was answered. Offloaded samples go through the
// pipeline's privacy perturbation exactly like plain split inference.
func (e *EarlyExit) Predict(rng *rand.Rand, x *tensor.Matrix) ([]int, []bool, error) {
	rep, err := e.Pipeline.TransformClean(x)
	if err != nil {
		return nil, nil, err
	}
	preds, offloadIdx, err := e.ExitLocally(rep)
	if err != nil {
		return nil, nil, err
	}
	local := make([]bool, x.Rows())
	for i := range local {
		local[i] = true
	}
	if len(offloadIdx) > 0 {
		sub, err := rep.SelectRows(offloadIdx)
		if err != nil {
			return nil, nil, err
		}
		cloudPreds, err := e.Pipeline.CloudPredictRep(rng, sub)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range offloadIdx {
			preds[i] = cloudPreds[k]
			local[i] = false
		}
	}
	return preds, local, nil
}

// ExitLocally is ExitLocallyInto over a freshly allocated probs matrix.
func (e *EarlyExit) ExitLocally(rep *tensor.Matrix) (preds []int, offload []int, err error) {
	return e.ExitLocallyInto(tensor.New(rep.Rows(), e.ExitClasses()), rep)
}

// CloudPredictRep perturbs an already-computed clean local representation
// and classifies it with the cloud network — the upload+server half of the
// split placement when the device half has already run.
func (p *Pipeline) CloudPredictRep(rng *rand.Rand, rep *tensor.Matrix) ([]int, error) {
	pert, err := p.Perturb(rng, rep)
	if err != nil {
		return nil, err
	}
	return p.Cloud.Predict(pert)
}
