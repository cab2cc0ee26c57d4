package split

import (
	"fmt"

	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// EarlyExit is the distributed-DNN pattern of Teerapittayanon et al. [25]
// (Section III): a small exit classifier runs on the device over the local
// representation; when its softmax confidence clears a threshold the answer
// is returned locally ("fast and localized inference"), otherwise the
// representation is offloaded to the deep cloud network.
type EarlyExit struct {
	// Pipeline provides the local feature extractor and the cloud network.
	Pipeline *Pipeline
	// Exit is the on-device classifier over the local representation.
	Exit *nn.Sequential
	// Threshold is the minimum local softmax confidence to answer locally.
	Threshold float64
}

// NewEarlyExit wraps a split pipeline with a local exit classifier.
func NewEarlyExit(p *Pipeline, exit *nn.Sequential, threshold float64) (*EarlyExit, error) {
	if p == nil || exit == nil {
		return nil, fmt.Errorf("%w: pipeline and exit classifier required", ErrConfig)
	}
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("%w: threshold %v", ErrConfig, threshold)
	}
	return &EarlyExit{Pipeline: p, Exit: exit, Threshold: threshold}, nil
}

// TrainExit fits the exit classifier on clean local representations.
func (e *EarlyExit) TrainExit(x *tensor.Matrix, labels []int, classes int, cfg TrainConfig) error {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.Optimizer == nil || cfg.Rng == nil {
		return fmt.Errorf("%w: incomplete train config", ErrConfig)
	}
	rep, err := e.Pipeline.TransformClean(x)
	if err != nil {
		return err
	}
	y, err := nn.OneHot(labels, classes)
	if err != nil {
		return err
	}
	_, err = nn.Train(e.Exit, rep, y, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Optimizer: cfg.Optimizer,
		Loss:      nn.NewSoftmaxCrossEntropy(),
		Rng:       cfg.Rng,
	})
	return err
}

// ExitLocallyInto evaluates the exit classifier over a clean local
// representation, the device half of the cascade. It returns per-row
// predictions (meaningful only for rows that exit) and the indices of rows
// whose confidence misses the threshold and must be offloaded to the cloud.
// The classifier's softmax lands in the caller-supplied probs matrix
// (rep.Rows() x ExitClasses()), so serving backends reuse the confidence
// distribution — e.g. for top-K probability reporting — without a second
// forward pass. probs may be pooled scratch; it is fully overwritten.
func (e *EarlyExit) ExitLocallyInto(probs, rep *tensor.Matrix) (preds []int, offload []int, err error) {
	out, err := e.Exit.Forward(rep, false)
	if err != nil {
		return nil, nil, err
	}
	if err := tensor.SoftmaxInto(probs, out); err != nil {
		return nil, nil, err
	}
	preds = make([]int, rep.Rows())
	for i := 0; i < rep.Rows(); i++ {
		c := probs.ArgMaxRow(i)
		preds[i] = c
		if probs.At(i, c) < e.Threshold {
			offload = append(offload, i)
		}
	}
	return preds, offload, nil
}

// ExitClasses returns the output width of the exit classifier (the Out of
// its last Dense layer), which is the column count ExitLocallyInto expects
// of its probs matrix.
func (e *EarlyExit) ExitClasses() int {
	classes := 0
	for _, l := range e.Exit.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			classes = d.Out()
		}
	}
	return classes
}
