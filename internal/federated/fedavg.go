package federated

import (
	"errors"
	"fmt"
	"math/rand"

	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// ErrConfig reports an invalid federated configuration.
var ErrConfig = errors.New("federated: invalid configuration")

// BytesPerValue is the wire size of one parameter or gradient value
// (float64). Selective uploads additionally pay BytesPerIndex per value.
const (
	BytesPerValue = 8
	BytesPerIndex = 4
)

// ModelFactory constructs a fresh model with the reference architecture.
// Every client and the server instantiate through the same factory so
// parameter lists align index-by-index.
type ModelFactory func() (*nn.Sequential, error)

// RoundStats records one communication round of a federated run.
type RoundStats struct {
	Round     int
	TrainLoss float64
	// Accuracy is the evaluation result for this round (-1 if the round was
	// not evaluated; see Config.EvalEvery).
	Accuracy float64
	// CumulativeUpBytes / CumulativeDownBytes count all client-server
	// traffic up to and including this round.
	CumulativeUpBytes   int64
	CumulativeDownBytes int64
	ParticipatingUsers  int
}

// FedAvgConfig configures a federated-averaging run (McMahan et al. [18]).
type FedAvgConfig struct {
	Rounds int
	// ClientFraction is C: the fraction of eligible clients sampled per round.
	ClientFraction float64
	// LocalEpochs is E: local passes per round. E=1 with full-batch clients
	// degenerates to naive distributed SGD (FedSGD), the paper's baseline.
	LocalEpochs int
	// LocalBatch is B: the local minibatch size (0 = full batch).
	LocalBatch int
	LocalLR    float64
	Seed       int64
	// Workers sizes the client-training worker pool (0 = GOMAXPROCS). Round
	// stats are identical for any worker count: per-client seeds are drawn
	// before the fan-out and results aggregate in selection order.
	Workers int
	// Eval, if non-nil, scores the global model; it runs every EvalEvery
	// rounds (default 1) and on the final round.
	Eval      func(model *nn.Sequential) (float64, error)
	EvalEvery int
	// TargetAccuracy stops the run early once Eval reaches it (0 = run all
	// rounds). Used to measure rounds/bytes-to-target.
	TargetAccuracy float64
	// Scheduler, if non-nil, gates which clients are eligible each round.
	Scheduler *Scheduler
}

func (c *FedAvgConfig) validate(numClients int) error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("%w: Rounds=%d", ErrConfig, c.Rounds)
	case c.ClientFraction <= 0 || c.ClientFraction > 1:
		return fmt.Errorf("%w: ClientFraction=%v", ErrConfig, c.ClientFraction)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("%w: LocalEpochs=%d", ErrConfig, c.LocalEpochs)
	case c.LocalLR <= 0:
		return fmt.Errorf("%w: LocalLR=%v", ErrConfig, c.LocalLR)
	case numClients == 0:
		return fmt.Errorf("%w: no client shards", ErrConfig)
	}
	return nil
}

// SelectRound draws one round's cohort: gate eligibility through the
// scheduler (advancing it), sample a ClientFraction-sized subset, and
// pre-draw each selected client's training seed from rng. An empty selection
// means no device was eligible this round.
func SelectRound(rng *rand.Rand, numClients int, fraction float64, sched *Scheduler) (selected []int, seeds []int64) {
	eligible := make([]int, 0, numClients)
	for k := 0; k < numClients; k++ {
		if sched == nil || sched.Eligible(k) {
			eligible = append(eligible, k)
		}
	}
	if sched != nil {
		sched.Advance()
	}
	if len(eligible) == 0 {
		return nil, nil
	}
	m := max(1, int(fraction*float64(len(eligible))))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	selected = eligible[:m]
	// Deterministic per-client seeds drawn before the concurrent phase.
	seeds = make([]int64, len(selected))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return selected, seeds
}

// RunFedAvg executes federated averaging over the client shards and returns
// the final global model plus per-round statistics: each round SelectRound
// draws the cohort and Round trains it and merges the n_k-weighted average
// at the barrier. A client error aborts the run.
func RunFedAvg(factory ModelFactory, shards []*data.ClientShard, classes int, cfg FedAvgConfig) (*nn.Sequential, []RoundStats, error) {
	if err := cfg.validate(len(shards)); err != nil {
		return nil, nil, err
	}
	global, err := factory()
	if err != nil {
		return nil, nil, fmt.Errorf("build global model: %w", err)
	}
	r := Round{
		Trainer: &SGDTrainer{
			Factory: factory,
			Classes: classes,
			Epochs:  cfg.LocalEpochs,
			Batch:   cfg.LocalBatch,
			LR:      cfg.LocalLR,
		},
		Shards:  shards,
		Global:  ParamValues(global.Params()),
		Workers: cfg.Workers,
	}
	merge := func(g []*tensor.Matrix, merged, _ []Update) (float64, error) { return MergeWeighted(g, merged, nil) }
	rng := rand.New(rand.NewSource(cfg.Seed))

	var stats []RoundStats
	for round := 0; round < cfg.Rounds; round++ {
		selected, seeds := SelectRound(rng, len(shards), cfg.ClientFraction, cfg.Scheduler)
		st, _, err := r.Run(round, selected, seeds, merge)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		// A round with no eligible device took no step and is not evaluated.
		if cfg.Eval != nil && len(selected) > 0 && (round%max(cfg.EvalEvery, 1) == 0 || round == cfg.Rounds-1) {
			if st.Accuracy, err = cfg.Eval(global); err != nil {
				return nil, nil, fmt.Errorf("round %d eval: %w", round, err)
			}
		}
		stats = append(stats, st)
		if cfg.TargetAccuracy > 0 && st.Accuracy >= cfg.TargetAccuracy {
			break
		}
	}
	return global, stats, nil
}

// MergeWeighted overwrites the global parameter values with the weighted
// average of the client results — the FedAvg server step,
// w_{t+1} = sum_k (a_k / A) w^k_{t+1} — accumulating in place so the merge
// allocates nothing. weights[i] is a_k for updates[i]; nil means a_k = n_k,
// the paper's plain n_k/n average. A failed update is refused before the
// global is touched, so callers that tolerate client failures filter first.
// It returns the sample-weighted mean training loss; a round with no updates
// leaves the global as it is and returns 0.
func MergeWeighted(global []*tensor.Matrix, updates []Update, weights []float64) (float64, error) {
	switch {
	case len(updates) == 0:
		return 0, nil
	case weights != nil && len(weights) != len(updates):
		return 0, fmt.Errorf("%w: %d weights for %d updates", ErrConfig, len(weights), len(updates))
	}
	weight := func(i int) float64 {
		if weights == nil {
			return float64(updates[i].N)
		}
		return weights[i]
	}
	var totalW, totalN, loss float64
	for i, u := range updates {
		if u.Err != nil {
			return 0, fmt.Errorf("client %d: %w", u.Client, u.Err)
		}
		totalW += weight(i)
		totalN += float64(u.N)
		loss += u.Loss * float64(u.N)
	}
	if totalW <= 0 || totalN == 0 {
		return 0, fmt.Errorf("%w: merge with no samples or zero total weight", ErrConfig)
	}
	for pi, gv := range global {
		gv.Zero()
		for i, u := range updates {
			if err := tensor.AxpyInPlace(gv, weight(i)/totalW, u.Weights[pi]); err != nil {
				return 0, err
			}
		}
	}
	return loss / totalN, nil
}

// AccuracyEval builds an Eval callback scoring classification accuracy on a
// held-out set. It runs every training round, so the forward pass recycles
// its activations through the shared tensor pool (InferPooled) instead of
// allocating per layer per round.
func AccuracyEval(x *tensor.Matrix, labels []int) func(*nn.Sequential) (float64, error) {
	return func(m *nn.Sequential) (float64, error) {
		out, err := m.InferPooled(x)
		if err != nil {
			return 0, err
		}
		correct := 0
		for i := range labels {
			if out.ArgMaxRow(i) == labels[i] {
				correct++
			}
		}
		tensor.Put(out)
		return float64(correct) / float64(len(labels)), nil
	}
}
