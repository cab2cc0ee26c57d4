package nn

import (
	"errors"
	"fmt"
	"math/rand"

	"mobiledl/internal/tensor"
)

// TrainConfig configures the minibatch training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Loss      Loss
	Rng       *rand.Rand
}

func (c *TrainConfig) validate() error {
	switch {
	case c.Epochs <= 0:
		return errors.New("nn: TrainConfig.Epochs must be positive")
	case c.BatchSize <= 0:
		return errors.New("nn: TrainConfig.BatchSize must be positive")
	case c.Optimizer == nil:
		return errors.New("nn: TrainConfig.Optimizer is required")
	case c.Loss == nil:
		return errors.New("nn: TrainConfig.Loss is required")
	case c.Rng == nil:
		return errors.New("nn: TrainConfig.Rng is required")
	}
	return nil
}

// Train fits model on (x, y) with shuffled minibatches and returns the mean
// loss per epoch. y rows are loss targets (one-hot rows for classification).
func Train(model Layer, x, y *tensor.Matrix, cfg TrainConfig) ([]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if x.Rows() != y.Rows() {
		return nil, fmt.Errorf("%w: %d samples vs %d targets", tensor.ErrShape, x.Rows(), y.Rows())
	}
	n := x.Rows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			idx := order[start:end]
			xb, err := x.SelectRows(idx)
			if err != nil {
				return nil, err
			}
			yb, err := y.SelectRows(idx)
			if err != nil {
				return nil, err
			}
			loss, err := TrainStep(model, xb, yb, cfg.Loss, cfg.Optimizer)
			if err != nil {
				return nil, fmt.Errorf("epoch %d: %w", epoch, err)
			}
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		losses = append(losses, epochLoss)
	}
	return losses, nil
}

// TrainStep runs a single forward/backward/update step on one batch and
// returns the batch loss.
func TrainStep(model Layer, xb, yb *tensor.Matrix, loss Loss, optimizer Optimizer) (float64, error) {
	params := model.Params()
	ZeroGrads(params)
	out, err := model.Forward(xb, true)
	if err != nil {
		return 0, fmt.Errorf("forward: %w", err)
	}
	l, err := loss.Forward(out, yb)
	if err != nil {
		return 0, fmt.Errorf("loss: %w", err)
	}
	grad, err := loss.Backward()
	if err != nil {
		return 0, fmt.Errorf("loss backward: %w", err)
	}
	if _, err := model.Backward(grad); err != nil {
		return 0, fmt.Errorf("backward: %w", err)
	}
	if err := optimizer.Step(params); err != nil {
		return 0, fmt.Errorf("optimizer: %w", err)
	}
	return l, nil
}

// OneHot encodes integer class labels as a len(labels) x classes matrix.
func OneHot(labels []int, classes int) (*tensor.Matrix, error) {
	out := tensor.New(len(labels), classes)
	for i, l := range labels {
		if l < 0 || l >= classes {
			return nil, fmt.Errorf("nn: label %d out of range [0,%d)", l, classes)
		}
		out.Set(i, l, 1)
	}
	return out, nil
}

// CopyWeights copies parameter values from src to dst; the two parameter
// lists must have identical shapes in identical order.
func CopyWeights(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyWeights %d params vs %d", len(dst), len(src))
	}
	for i := range dst {
		if err := dst[i].Value.CopyFrom(src[i].Value); err != nil {
			return fmt.Errorf("param %d (%s): %w", i, dst[i].Name, err)
		}
	}
	return nil
}
