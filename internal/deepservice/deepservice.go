// Package deepservice implements DEEPSERVICE (Section IV-B, [48]): a
// multi-view, multi-class deep model that identifies the user of a mobile
// device from keystroke and accelerometer dynamics. Architecturally it is
// the DeepMood multi-view GRU + fusion model labeled by user identity; this
// package adds the N-way and pairwise (binary) identification protocols the
// paper evaluates.
package deepservice

import (
	"errors"
	"fmt"
	"math/rand"

	"mobiledl/internal/data"
	"mobiledl/internal/deepmood"
	"mobiledl/internal/metrics"
	"mobiledl/internal/nn"
)

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("deepservice: invalid configuration")

// Config configures a DEEPSERVICE identifier.
type Config struct {
	NumUsers int
	Hidden   int
	Fusion   deepmood.FusionKind
	Seed     int64
}

// Identifier is an N-way user-identification model.
type Identifier struct {
	model *deepmood.Model
	users int
}

// New builds an N-way identifier.
func New(cfg Config) (*Identifier, error) {
	if cfg.NumUsers < 2 {
		return nil, fmt.Errorf("%w: NumUsers=%d", ErrConfig, cfg.NumUsers)
	}
	if cfg.Fusion == "" {
		cfg.Fusion = deepmood.FusionMVM
	}
	m, err := deepmood.New(deepmood.Config{
		Task:    deepmood.TaskUser,
		Classes: cfg.NumUsers,
		Hidden:  cfg.Hidden,
		Fusion:  cfg.Fusion,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Identifier{model: m, users: cfg.NumUsers}, nil
}

// Train fits the identifier on normalized sessions.
func (id *Identifier) Train(sessions []*data.Session, cfg deepmood.TrainConfig) ([]float64, error) {
	return id.model.Train(sessions, cfg)
}

// Evaluate computes accuracy and F1 over test sessions.
func (id *Identifier) Evaluate(sessions []*data.Session) (metrics.Report, error) {
	preds, err := id.model.PredictAll(sessions)
	if err != nil {
		return metrics.Report{}, err
	}
	truth := make([]int, len(sessions))
	for i, s := range sessions {
		truth[i] = s.UserID
	}
	return metrics.Evaluate(preds, truth, id.users)
}

// PairResult is one binary user-vs-user identification outcome (the paper's
// "any two users" protocol, e.g. husband-and-wife phone sharing).
type PairResult struct {
	UserA, UserB int
	Accuracy     float64
	F1           float64
}

// PairwiseConfig configures the pairwise identification experiment. Each
// pair's sessions split 80/20 into train and test.
type PairwiseConfig struct {
	Hidden    int
	Fusion    deepmood.FusionKind
	Epochs    int
	BatchSize int
	Seed      int64
}

// EvaluatePairs trains and evaluates a fresh binary identifier for every
// user pair in users, returning per-pair results. Sessions must be the raw
// (unnormalized) corpus; normalization happens internally.
func EvaluatePairs(sessions []*data.Session, users []int, cfg PairwiseConfig, newOpt func() nn.Optimizer) ([]PairResult, error) {
	if len(users) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 users", ErrConfig)
	}
	var results []PairResult
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			res, err := evaluatePair(sessions, users[i], users[j], cfg, newOpt())
			if err != nil {
				return nil, fmt.Errorf("pair (%d,%d): %w", users[i], users[j], err)
			}
			results = append(results, res)
		}
	}
	return results, nil
}

func evaluatePair(sessions []*data.Session, a, b int, cfg PairwiseConfig, optimizer nn.Optimizer) (PairResult, error) {
	// Relabel the pair's sessions to {0, 1}.
	var pair []*data.Session
	for _, s := range sessions {
		if s.UserID != a && s.UserID != b {
			continue
		}
		ns := data.NormalizeSessionViews(s)
		if s.UserID == a {
			ns.UserID = 0
		} else {
			ns.UserID = 1
		}
		pair = append(pair, ns)
	}
	if len(pair) < 4 {
		return PairResult{}, fmt.Errorf("%w: only %d sessions for pair", ErrConfig, len(pair))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	train, test, err := data.SplitSessions(rng, pair, 0.8)
	if err != nil {
		return PairResult{}, err
	}
	id, err := New(Config{
		NumUsers: 2,
		Hidden:   cfg.Hidden,
		Fusion:   cfg.Fusion,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return PairResult{}, err
	}
	if _, err := id.Train(train, deepmood.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Optimizer: optimizer,
		Rng:       rng,
	}); err != nil {
		return PairResult{}, err
	}
	rep, err := id.Evaluate(test)
	if err != nil {
		return PairResult{}, err
	}
	return PairResult{UserA: a, UserB: b, Accuracy: rep.Accuracy, F1: rep.F1}, nil
}

// MeanPairMetrics averages pairwise accuracy and F1, the numbers the paper
// reports as 99.1% accuracy / 98.97% F1.
func MeanPairMetrics(results []PairResult) (accuracy, f1 float64) {
	if len(results) == 0 {
		return 0, 0
	}
	for _, r := range results {
		accuracy += r.Accuracy
		f1 += r.F1
	}
	n := float64(len(results))
	return accuracy / n, f1 / n
}
