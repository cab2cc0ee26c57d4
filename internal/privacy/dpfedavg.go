package privacy

import (
	"fmt"
	"math"
	"math/rand"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// DPFedAvgConfig configures the user-level differentially private federated
// averaging of McMahan et al. [22], which modifies non-private federated
// training exactly as Section II-C lists:
//
//  1. participants are selected independently with probability P rather
//     than as a fixed-size cohort;
//  2. each client update is bounded to L2 norm Clip;
//  3. a fixed-denominator estimator (q·W) is used for the weighted average
//     so the moments accountant applies;
//  4. Gaussian noise with multiplier Sigma is added to the final average.
type DPFedAvgConfig struct {
	Rounds int
	// P is the independent per-client selection probability.
	P           float64
	LocalEpochs int
	LocalBatch  int
	LocalLR     float64
	Clip        float64
	Sigma       float64
	Seed        int64
	Eval        func(model *nn.Sequential) (float64, error)
	EvalEvery   int
}

func (c *DPFedAvgConfig) validate(numClients int) error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("%w: rounds=%d", ErrBudget, c.Rounds)
	case c.P <= 0 || c.P > 1:
		return fmt.Errorf("%w: p=%v", ErrBudget, c.P)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("%w: local epochs=%d", ErrBudget, c.LocalEpochs)
	case c.LocalLR <= 0:
		return fmt.Errorf("%w: local lr=%v", ErrBudget, c.LocalLR)
	case c.Clip <= 0:
		return fmt.Errorf("%w: clip=%v", ErrBudget, c.Clip)
	case c.Sigma < 0:
		return fmt.Errorf("%w: sigma=%v", ErrBudget, c.Sigma)
	case numClients == 0:
		return fmt.Errorf("%w: no clients", ErrBudget)
	}
	return nil
}

// DPFedAvgResult bundles the trained model, per-round stats, and the
// accountant carrying the user-level privacy spend.
type DPFedAvgResult struct {
	Model      *nn.Sequential
	Stats      []federated.RoundStats
	Accountant *MomentsAccountant
}

// RunDPFedAvg executes user-level DP federated averaging: each round draws
// an independent Bernoulli(P) cohort, federated.Round trains it and applies
// DPFedAvgStep, and the accountant charges one noisy release.
func RunDPFedAvg(factory federated.ModelFactory, shards []*data.ClientShard, classes int, cfg DPFedAvgConfig) (*DPFedAvgResult, error) {
	if err := cfg.validate(len(shards)); err != nil {
		return nil, err
	}
	global, err := factory()
	if err != nil {
		return nil, err
	}

	var acct *MomentsAccountant
	if cfg.Sigma > 0 {
		acct, err = NewMomentsAccountant(cfg.Sigma, cfg.P)
		if err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	// A GOMAXPROCS-sized pool; the result is the same for any size.
	r := federated.Round{
		Trainer: &federated.SGDTrainer{
			Factory: factory,
			Classes: classes,
			Epochs:  cfg.LocalEpochs,
			Batch:   cfg.LocalBatch,
			LR:      cfg.LocalLR,
		},
		Shards: shards,
		Global: federated.ParamValues(global.Params()),
	}
	// Fixed denominator: expected participation mass q*W with uniform
	// client weights w_k = 1. An empty cohort still takes the step: the
	// release is noise alone.
	expectedMass := cfg.P * float64(len(shards))
	step := func(g []*tensor.Matrix, merged, _ []federated.Update) (float64, error) {
		return DPFedAvgStep(rng, g, merged, cfg.Clip, cfg.Sigma, expectedMass)
	}

	var stats []federated.RoundStats
	for round := 0; round < cfg.Rounds; round++ {
		// Independent Bernoulli(P) selection, with per-client seeds drawn in
		// client order so the parallel fan-out reproduces the sequential run.
		var selected []int
		var seeds []int64
		for k := range shards {
			if rng.Float64() >= cfg.P {
				continue
			}
			selected = append(selected, k)
			seeds = append(seeds, rng.Int63())
		}
		st, _, err := r.Run(round, selected, seeds, step)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		if acct != nil {
			acct.AccumulateSteps(1)
		}
		if cfg.Eval != nil && (round%max(cfg.EvalEvery, 1) == 0 || round == cfg.Rounds-1) {
			if st.Accuracy, err = cfg.Eval(global); err != nil {
				return nil, err
			}
		}
		stats = append(stats, st)
	}
	return &DPFedAvgResult{Model: global, Stats: stats, Accountant: acct}, nil
}

// DPFedAvgStep applies the DP-FedAvg server step to global in place: each
// update's delta against global is clipped to joint L2 norm clip, the clipped
// deltas are summed and divided by the fixed denominator denom (q·W, the
// expected cohort mass rather than the realised one, so the moments
// accountant applies), and Gaussian noise of std sigma·clip/denom is added
// to that average. It is the one implementation of the step: RunDPFedAvg and
// the fedserve coordinator both hand it to federated.Round. A failed update
// is refused before global is touched. It returns the mean client loss (0 for an empty cohort).
func DPFedAvgStep(rng *rand.Rand, global []*tensor.Matrix, updates []federated.Update, clip, sigma, denom float64) (float64, error) {
	var loss float64
	for _, u := range updates {
		if u.Err != nil {
			return 0, fmt.Errorf("client %d: %w", u.Client, u.Err)
		}
		loss += u.Loss
	}
	// The joint clip needs a whole client's delta at once, so the
	// subtraction cannot stream into the accumulator directly.
	sum := make([]*tensor.Matrix, len(global))
	delta := make([]*tensor.Matrix, len(global))
	for i, g := range global {
		sum[i] = tensor.Get(g.Rows(), g.Cols())
		delta[i] = tensor.Get(g.Rows(), g.Cols())
	}
	defer func() {
		for i := range global {
			tensor.Put(sum[i])
			tensor.Put(delta[i])
		}
	}()
	for _, u := range updates {
		for i := range delta {
			if err := tensor.SubInto(delta[i], u.Weights[i], global[i]); err != nil {
				return 0, err
			}
		}
		ClipJoint(delta, clip)
		for i := range sum {
			if err := tensor.AddInPlace(sum[i], delta[i]); err != nil {
				return 0, err
			}
		}
	}
	for i, g := range global {
		sum[i].ScaleInPlace(1 / denom)
		if sigma > 0 {
			AddGaussian(rng, sum[i], sigma*clip/denom)
		}
		if err := tensor.AddInPlace(g, sum[i]); err != nil {
			return 0, err
		}
	}
	if len(updates) > 0 {
		loss /= float64(len(updates))
	}
	return loss, nil
}

// ClipJoint rescales a parameter-update set so its joint L2 norm (flattened
// across all matrices) is at most bound — the per-client bounding step of
// DP-FedAvg.
func ClipJoint(update []*tensor.Matrix, bound float64) {
	var sq float64
	for _, m := range update {
		for _, v := range m.Data() {
			sq += v * v
		}
	}
	norm := math.Sqrt(sq)
	if norm > bound {
		scale := bound / norm
		for _, m := range update {
			m.ScaleInPlace(scale)
		}
	}
}
