// Package deepmood implements DeepMood (Section IV-A, Fig. 4): an
// end-to-end late-fusion architecture for multi-view mobile typing-dynamics
// time series. Each view (alphanumeric keypresses, special-key events,
// accelerometer samples) is encoded by its own GRU; the final hidden states
// are fused by one of the three fusion layers of Eqs. 2-4 (package fusion)
// to predict a session-level label.
//
// The same architecture, labeled by user instead of mood, is DEEPSERVICE
// (Section IV-B); package deepservice wraps this model for that task.
package deepmood

import (
	"errors"
	"fmt"
	"math/rand"

	"mobiledl/internal/data"
	"mobiledl/internal/fusion"
	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// Task selects which session label the model predicts.
type Task int

// Supported prediction tasks.
const (
	TaskMood Task = iota + 1 // predict Session.Mood (DeepMood)
	TaskUser                 // predict Session.UserID (DEEPSERVICE)
)

// FusionKind selects the fusion head.
type FusionKind string

// Supported fusion heads (Eqs. 2-4).
const (
	FusionFC  FusionKind = "fc"
	FusionFM  FusionKind = "fm"
	FusionMVM FusionKind = "mvm"
)

// ErrConfig reports an invalid model configuration.
var ErrConfig = errors.New("deepmood: invalid configuration")

// Config configures a DeepMood model.
type Config struct {
	Task    Task
	Classes int
	// Hidden is the per-view GRU hidden size (d_h).
	Hidden int
	// Fusion selects the head: FC (Eq. 2), FM (Eq. 3) or MVM (Eq. 4).
	Fusion FusionKind
	// FusionUnits is k' for FC and k for FM/MVM; defaults to Hidden.
	FusionUnits int
	Seed        int64
}

func (c *Config) validate() error {
	if c.Task != TaskMood && c.Task != TaskUser {
		return fmt.Errorf("%w: unknown task %d", ErrConfig, c.Task)
	}
	if c.Classes < 2 {
		return fmt.Errorf("%w: classes=%d", ErrConfig, c.Classes)
	}
	if c.Hidden <= 0 {
		return fmt.Errorf("%w: hidden=%d", ErrConfig, c.Hidden)
	}
	switch c.Fusion {
	case FusionFC, FusionFM, FusionMVM:
	default:
		return fmt.Errorf("%w: unknown fusion %q", ErrConfig, c.Fusion)
	}
	return nil
}

// Model is a trained or trainable DeepMood instance.
type Model struct {
	cfg      Config
	encoders []*nn.GRU // one per view: alphanumeric, special, accelerometer
	fusion   fusion.Layer
	params   []*nn.Param
}

// viewDims are the per-view input feature dimensions, in model view order.
var viewDims = []int{data.AlphanumericDim, data.SpecialDim, data.AccelerometerDim}

// New builds a DeepMood model.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.FusionUnits == 0 {
		cfg.FusionUnits = cfg.Hidden
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg}

	for _, d := range viewDims {
		m.encoders = append(m.encoders, nn.NewGRU(rng, d, cfg.Hidden))
	}

	numViews := len(viewDims)
	switch cfg.Fusion {
	case FusionFC:
		m.fusion = fusion.NewFullyConnected(rng, numViews, cfg.Hidden, cfg.FusionUnits, cfg.Classes)
	case FusionFM:
		m.fusion = fusion.NewFactorizationMachine(rng, numViews, cfg.Hidden, cfg.FusionUnits, cfg.Classes)
	case FusionMVM:
		m.fusion = fusion.NewMultiviewMachine(rng, numViews, cfg.Hidden, cfg.FusionUnits, cfg.Classes)
	}

	for _, e := range m.encoders {
		m.params = append(m.params, e.Params()...)
	}
	m.params = append(m.params, m.fusion.Params()...)
	return m, nil
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// Label extracts the task label from a session.
func (m *Model) Label(s *data.Session) int {
	if m.cfg.Task == TaskUser {
		return s.UserID
	}
	return s.Mood
}

// sessionViews orders the (normalized) session views for the encoders.
func sessionViews(s *data.Session) []*tensor.Matrix {
	return []*tensor.Matrix{s.Alphanumeric, s.Special, s.Accelerometer}
}

// Forward runs the full model on one session and returns class logits
// (1 x classes), caching state for Backward.
func (m *Model) Forward(s *data.Session) (*tensor.Matrix, error) {
	views := sessionViews(s)
	embeds := make([]*tensor.Matrix, len(views))
	for p, e := range m.encoders {
		h, err := e.ForwardSeq(views[p])
		if err != nil {
			return nil, fmt.Errorf("view %d encoder: %w", p, err)
		}
		embeds[p] = h
	}
	out, err := m.fusion.Forward(embeds)
	if err != nil {
		return nil, fmt.Errorf("fusion: %w", err)
	}
	return out, nil
}

// Backward backpropagates dLoss/dLogits through the fusion head and all
// view encoders, accumulating parameter gradients.
func (m *Model) Backward(grad *tensor.Matrix) error {
	viewGrads, err := m.fusion.Backward(grad)
	if err != nil {
		return fmt.Errorf("fusion backward: %w", err)
	}
	for p, e := range m.encoders {
		if _, err := e.BackwardLast(viewGrads[p]); err != nil {
			return fmt.Errorf("view %d encoder backward: %w", p, err)
		}
	}
	return nil
}

// Predict returns the predicted class for one session (inference mode).
func (m *Model) Predict(s *data.Session) (int, error) {
	out, err := m.Forward(s)
	if err != nil {
		return 0, err
	}
	return out.ArgMaxRow(0), nil
}

// PredictAll classifies each session.
func (m *Model) PredictAll(sessions []*data.Session) ([]int, error) {
	preds := make([]int, len(sessions))
	for i, s := range sessions {
		p, err := m.Predict(s)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		preds[i] = p
	}
	return preds, nil
}

// TrainConfig configures session-level training.
type TrainConfig struct {
	Epochs    int
	BatchSize int // gradient-accumulation batch, in sessions
	Optimizer nn.Optimizer
	Rng       *rand.Rand
}

// Train fits the model on the given (pre-normalized) sessions and returns
// per-epoch mean losses.
func (m *Model) Train(sessions []*data.Session, cfg TrainConfig) ([]float64, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.Optimizer == nil || cfg.Rng == nil {
		return nil, fmt.Errorf("%w: incomplete train config", ErrConfig)
	}
	if len(sessions) == 0 {
		return nil, fmt.Errorf("%w: no sessions", ErrConfig)
	}
	loss := nn.NewSoftmaxCrossEntropy()
	order := make([]int, len(sessions))
	for i := range order {
		order[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		count := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			nn.ZeroGrads(m.params)
			for _, idx := range order[start:end] {
				s := sessions[idx]
				out, err := m.Forward(s)
				if err != nil {
					return nil, err
				}
				y, err := nn.OneHot([]int{m.Label(s)}, m.cfg.Classes)
				if err != nil {
					return nil, err
				}
				l, err := loss.Forward(out, y)
				if err != nil {
					return nil, err
				}
				g, err := loss.Backward()
				if err != nil {
					return nil, err
				}
				if err := m.Backward(g); err != nil {
					return nil, err
				}
				epochLoss += l
				count++
			}
			// Average accumulated gradients over the batch.
			scale := 1 / float64(end-start)
			for _, p := range m.params {
				p.Grad.ScaleInPlace(scale)
			}
			if err := cfg.Optimizer.Step(m.params); err != nil {
				return nil, err
			}
		}
		losses = append(losses, epochLoss/float64(count))
	}
	return losses, nil
}

// NormalizeAll returns normalized copies of sessions ready for the model.
func NormalizeAll(sessions []*data.Session) []*data.Session {
	out := make([]*data.Session, len(sessions))
	for i, s := range sessions {
		out[i] = data.NormalizeSessionViews(s)
	}
	return out
}
