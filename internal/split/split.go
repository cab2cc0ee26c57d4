// Package split implements the authors' private cloud-based inference
// framework of Section III-A (ARDEN, Wang et al. [30], Fig. 3): a DNN is
// divided into a frozen, lightweight local part that runs on the mobile
// device and a deep cloud part. The local activation is perturbed with
// nullification and calibrated noise before upload, giving a differential-
// privacy guarantee, and the cloud network is made robust to that
// perturbation by "noisy training" — injecting the same perturbations into
// its training data.
package split

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mobiledl/internal/nn"
	"mobiledl/internal/privacy"
	"mobiledl/internal/tensor"
)

// ErrConfig reports an invalid split-inference configuration.
var ErrConfig = errors.New("split: invalid configuration")

// Pipeline is a split DNN: frozen local layers + trainable cloud layers.
type Pipeline struct {
	// Local is the frozen on-device feature extractor.
	Local *nn.Sequential
	// Cloud is the server-side network, fine-tuned in the cloud.
	Cloud *nn.Sequential
	// NullRate is the input-nullification probability applied to the
	// transformed representation.
	NullRate float64
	// NoiseSigma is the std of Gaussian noise added to the representation.
	NoiseSigma float64
	// Bound clips the representation's L2 norm before noising so the noise
	// is calibrated to a fixed sensitivity.
	Bound float64
}

// Config configures a Pipeline.
type Config struct {
	Local      *nn.Sequential
	Cloud      *nn.Sequential
	NullRate   float64
	NoiseSigma float64
	Bound      float64
}

// New validates and builds a split pipeline.
func New(cfg Config) (*Pipeline, error) {
	switch {
	case cfg.Local == nil || cfg.Cloud == nil:
		return nil, fmt.Errorf("%w: local and cloud networks required", ErrConfig)
	case cfg.NullRate < 0 || cfg.NullRate >= 1:
		return nil, fmt.Errorf("%w: null rate %v", ErrConfig, cfg.NullRate)
	case cfg.NoiseSigma < 0:
		return nil, fmt.Errorf("%w: noise sigma %v", ErrConfig, cfg.NoiseSigma)
	case cfg.Bound <= 0:
		return nil, fmt.Errorf("%w: bound %v", ErrConfig, cfg.Bound)
	}
	return &Pipeline{
		Local:      cfg.Local,
		Cloud:      cfg.Cloud,
		NullRate:   cfg.NullRate,
		NoiseSigma: cfg.NoiseSigma,
		Bound:      cfg.Bound,
	}, nil
}

// Transform runs the frozen local network and applies the privacy
// perturbation (clip -> nullification -> Gaussian noise) row by row.
// This is exactly what leaves the mobile device.
func (p *Pipeline) Transform(rng *rand.Rand, x *tensor.Matrix) (*tensor.Matrix, error) {
	h, err := p.Local.Forward(x, false)
	if err != nil {
		return nil, fmt.Errorf("local forward: %w", err)
	}
	return p.Perturb(rng, h)
}

// Perturb applies the privacy perturbation (clip -> nullification ->
// Gaussian noise) to an already-computed local representation, returning a
// new matrix. Staged executors (e.g. a serving runtime that computes the
// clean representation once for an early-exit check) use this to perturb
// only the rows that are actually offloaded.
func (p *Pipeline) Perturb(rng *rand.Rand, rep *tensor.Matrix) (*tensor.Matrix, error) {
	out := rep.Clone()
	for i := 0; i < out.Rows(); i++ {
		// Row views mutate out in place — no per-row slice-and-copy-back.
		row := out.RowMatrix(i)
		if _, err := privacy.ClipL2(row, p.Bound); err != nil {
			return nil, err
		}
		if p.NullRate > 0 {
			if _, err := privacy.Nullification(rng, row, p.NullRate); err != nil {
				return nil, err
			}
		}
		if p.NoiseSigma > 0 {
			privacy.AddGaussian(rng, row, p.NoiseSigma)
		}
	}
	return out, nil
}

// TransformClean runs the local network without perturbation (used for the
// non-private baseline and for noisy-training data synthesis). The result
// never aliases x: a pass-through local network (one with no layers returns
// its input) is cloned, so callers that recycle x — the serving batcher
// pools its batch matrices — stay safe.
func (p *Pipeline) TransformClean(x *tensor.Matrix) (*tensor.Matrix, error) {
	h, err := p.Local.Forward(x, false)
	if err != nil {
		return nil, err
	}
	if h == x {
		return h.Clone(), nil
	}
	return h, nil
}

// Epsilon returns the per-query (ε, δ) differential-privacy guarantee of
// the Gaussian perturbation given the clipped L2 sensitivity (2*Bound for
// replace-one adjacency) at the configured sigma.
func (p *Pipeline) Epsilon(delta float64) (float64, error) {
	if p.NoiseSigma == 0 {
		return 0, fmt.Errorf("%w: no noise, no DP guarantee", ErrConfig)
	}
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("%w: delta %v", ErrConfig, delta)
	}
	// sigma = sqrt(2 ln(1.25/δ)) * S / ε  =>  ε = sqrt(2 ln(1.25/δ)) * S / sigma
	sensitivity := 2 * p.Bound
	return sqrtTwoLog(delta) * sensitivity / p.NoiseSigma, nil
}

func sqrtTwoLog(delta float64) float64 {
	return math.Sqrt(2 * math.Log(1.25/delta))
}

// Predict classifies x through the full split pipeline with perturbation.
func (p *Pipeline) Predict(rng *rand.Rand, x *tensor.Matrix) ([]int, error) {
	rep, err := p.Transform(rng, x)
	if err != nil {
		return nil, err
	}
	return p.Cloud.Predict(rep)
}

// RepDim returns the width of the local representation (the last Dense
// output of the local network, or inputDim if it has none) — the per-sample
// upload payload width under the split placement.
func (p *Pipeline) RepDim(inputDim int) int {
	outDim := inputDim
	for _, l := range p.Local.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			outDim = d.Out()
		}
	}
	return outDim
}

// PayloadBytes returns the per-sample upload size of the transformed
// representation vs the raw input, demonstrating the paper's claim that the
// abstract representation is smaller than the raw data.
func (p *Pipeline) PayloadBytes(inputDim int) (raw, transformed int) {
	return inputDim * 8, p.RepDim(inputDim) * 8
}

// TrainConfig configures cloud-side training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer nn.Optimizer
	Rng       *rand.Rand
	// NoisyFraction is the fraction of additional perturbed copies injected
	// per clean sample (the paper's noisy training; 0 = clean training).
	NoisyFraction float64
}

// TrainCloud fine-tunes the cloud network on representations of (x, labels).
// With NoisyFraction > 0 it performs noisy training: the training set is the
// clean representations plus perturbed copies, so the cloud network learns
// to be robust to the inference-time perturbation.
func (p *Pipeline) TrainCloud(x *tensor.Matrix, labels []int, classes int, cfg TrainConfig) ([]float64, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.Optimizer == nil || cfg.Rng == nil {
		return nil, fmt.Errorf("%w: incomplete train config", ErrConfig)
	}
	if cfg.NoisyFraction < 0 || cfg.NoisyFraction > 4 {
		return nil, fmt.Errorf("%w: noisy fraction %v", ErrConfig, cfg.NoisyFraction)
	}
	clean, err := p.TransformClean(x)
	if err != nil {
		return nil, err
	}
	reps := clean
	allLabels := labels
	if cfg.NoisyFraction > 0 {
		copies := int(cfg.NoisyFraction + 0.999)
		parts := []*tensor.Matrix{clean}
		lab := append([]int(nil), labels...)
		for c := 0; c < copies; c++ {
			noisy, err := p.Transform(cfg.Rng, x)
			if err != nil {
				return nil, err
			}
			parts = append(parts, noisy)
			lab = append(lab, labels...)
		}
		reps, err = tensor.VStack(parts...)
		if err != nil {
			return nil, err
		}
		allLabels = lab
	}
	y, err := nn.OneHot(allLabels, classes)
	if err != nil {
		return nil, err
	}
	return nn.Train(p.Cloud, reps, y, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Optimizer: cfg.Optimizer,
		Loss:      nn.NewSoftmaxCrossEntropy(),
		Rng:       cfg.Rng,
	})
}

// Accuracy scores the full perturbed pipeline on labeled data.
func (p *Pipeline) Accuracy(rng *rand.Rand, x *tensor.Matrix, labels []int) (float64, error) {
	preds, err := p.Predict(rng, x)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, pr := range preds {
		if pr == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}
