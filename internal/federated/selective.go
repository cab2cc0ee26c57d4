package federated

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
	"mobiledl/internal/tensor"
)

// SelectiveSGDConfig configures the distributed selective SGD of Shokri &
// Shmatikov [16] (Fig. 1): participants train locally and exchange only a
// θ-fraction of parameter updates with a global parameter server.
type SelectiveSGDConfig struct {
	Rounds int
	// Theta is the fraction of parameter updates uploaded per round,
	// selected by largest magnitude (the paper's "largest values" criterion).
	Theta float64
	// DownloadFraction is the fraction of global parameters each participant
	// refreshes before training (1 = full download).
	DownloadFraction float64
	LocalEpochs      int
	LocalBatch       int
	LocalLR          float64
	Seed             int64
	// Eval, if set, scores the global model after every round.
	Eval func(model *nn.Sequential) (float64, error)
}

func (c *SelectiveSGDConfig) validate(numClients int) error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("%w: Rounds=%d", ErrConfig, c.Rounds)
	case c.Theta <= 0 || c.Theta > 1:
		return fmt.Errorf("%w: Theta=%v", ErrConfig, c.Theta)
	case c.DownloadFraction <= 0 || c.DownloadFraction > 1:
		return fmt.Errorf("%w: DownloadFraction=%v", ErrConfig, c.DownloadFraction)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("%w: LocalEpochs=%d", ErrConfig, c.LocalEpochs)
	case c.LocalLR <= 0:
		return fmt.Errorf("%w: LocalLR=%v", ErrConfig, c.LocalLR)
	case numClients == 0:
		return fmt.Errorf("%w: no client shards", ErrConfig)
	}
	return nil
}

// participant is one selective-SGD worker with a persistent local model.
type participant struct {
	model *nn.Sequential
	shard *data.ClientShard
	y     *tensor.Matrix
	rng   *rand.Rand
	// before holds the pre-training parameter snapshot, allocated once and
	// rewritten in place every round (the round loop is a hot path; see the
	// pooling conventions in the root doc.go).
	before []*tensor.Matrix
}

// snapshotInto copies the participant's current parameter values into its
// reusable snapshot buffers.
func (p *participant) snapshotInto() error {
	params := p.model.Params()
	if p.before == nil {
		p.before = make([]*tensor.Matrix, len(params))
		for i, pr := range params {
			p.before[i] = tensor.New(pr.Value.Rows(), pr.Value.Cols())
		}
	}
	for i, pr := range params {
		if err := p.before[i].CopyFrom(pr.Value); err != nil {
			return err
		}
	}
	return nil
}

// RunSelectiveSGD executes distributed selective SGD: each round every
// participant (in deterministic order) downloads a fraction of the freshest
// global parameters, trains locally, and uploads the θ-fraction of updates
// with the largest magnitude, which the server adds to the global model.
//
// Unlike RunFedAvg, the participant loop is deliberately sequential: the
// algorithm's value comes from each participant seeing the freshest global
// parameters — including the uploads of participants earlier in the same
// round — so a parallel fan-out would change the scheme, not just its speed.
// Parallel client training lives in FanOut.
func RunSelectiveSGD(factory ModelFactory, shards []*data.ClientShard, classes int, cfg SelectiveSGDConfig) (*nn.Sequential, []RoundStats, error) {
	if err := cfg.validate(len(shards)); err != nil {
		return nil, nil, err
	}
	global, err := factory()
	if err != nil {
		return nil, nil, fmt.Errorf("build global model: %w", err)
	}
	globalParams := global.Params()
	totalParams := nn.NumParams(globalParams)

	rng := rand.New(rand.NewSource(cfg.Seed))
	parts := make([]*participant, len(shards))
	for k, shard := range shards {
		local, err := factory()
		if err != nil {
			return nil, nil, err
		}
		if err := nn.CopyWeights(local.Params(), globalParams); err != nil {
			return nil, nil, err
		}
		y, err := nn.OneHot(shard.Labels, classes)
		if err != nil {
			return nil, nil, err
		}
		parts[k] = &participant{
			model: local,
			shard: shard,
			y:     y,
			rng:   rand.New(rand.NewSource(rng.Int63())),
		}
	}

	uploadCount := int(math.Ceil(cfg.Theta * float64(totalParams)))
	downloadCount := int(math.Ceil(cfg.DownloadFraction * float64(totalParams)))

	var stats []RoundStats
	var upBytes, downBytes int64

	for round := 0; round < cfg.Rounds; round++ {
		var roundLoss float64
		for _, p := range parts {
			// Download: refresh a random fraction of local params from global.
			downloadParams(p.rng, p.model.Params(), globalParams, cfg.DownloadFraction)
			downBytes += int64(downloadCount) * (BytesPerValue + BytesPerIndex)

			// Snapshot (into the participant's reusable buffers), train
			// locally, compute deltas.
			if err := p.snapshotInto(); err != nil {
				return nil, nil, err
			}
			batch := cfg.LocalBatch
			if batch <= 0 || batch > p.shard.Size() {
				batch = p.shard.Size()
			}
			losses, err := nn.Train(p.model, p.shard.X, p.y, nn.TrainConfig{
				Epochs:    cfg.LocalEpochs,
				BatchSize: batch,
				Optimizer: opt.NewSGD(cfg.LocalLR),
				Loss:      nn.NewSoftmaxCrossEntropy(),
				Rng:       p.rng,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("round %d: %w", round, err)
			}
			roundLoss += losses[len(losses)-1]

			// Upload: apply the top-θ fraction of deltas to the global model.
			applyTopDeltas(p.model.Params(), p.before, globalParams, uploadCount)
			upBytes += int64(uploadCount) * (BytesPerValue + BytesPerIndex)
		}
		roundLoss /= float64(len(parts))

		st := RoundStats{
			Round:               round,
			TrainLoss:           roundLoss,
			Accuracy:            -1,
			CumulativeUpBytes:   upBytes,
			CumulativeDownBytes: downBytes,
			ParticipatingUsers:  len(parts),
		}
		if cfg.Eval != nil {
			acc, err := cfg.Eval(global)
			if err != nil {
				return nil, nil, err
			}
			st.Accuracy = acc
		}
		stats = append(stats, st)
	}
	return global, stats, nil
}

// downloadParams overwrites a random fraction of local parameter values with
// the global values (the paper's partial-download step).
func downloadParams(rng *rand.Rand, local []*nn.Param, global []*nn.Param, fraction float64) {
	if fraction >= 1 {
		for i := range local {
			copy(local[i].Value.Data(), global[i].Value.Data())
		}
		return
	}
	for i := range local {
		ld := local[i].Value.Data()
		gd := global[i].Value.Data()
		for j := range ld {
			if rng.Float64() < fraction {
				ld[j] = gd[j]
			}
		}
	}
}

// applyTopDeltas computes local-after minus local-before deltas, selects the
// uploadCount largest by magnitude across all parameters, and adds them to
// the global model.
func applyTopDeltas(local []*nn.Param, before []*tensor.Matrix, global []*nn.Param, uploadCount int) {
	type deltaRef struct {
		param, idx int
		value      float64
	}
	var deltas []deltaRef
	for pi := range local {
		ld := local[pi].Value.Data()
		bd := before[pi].Data()
		for j := range ld {
			d := ld[j] - bd[j]
			if d != 0 {
				deltas = append(deltas, deltaRef{param: pi, idx: j, value: d})
			}
		}
	}
	if uploadCount < len(deltas) {
		sort.Slice(deltas, func(a, b int) bool {
			return math.Abs(deltas[a].value) > math.Abs(deltas[b].value)
		})
		deltas = deltas[:uploadCount]
	}
	for _, d := range deltas {
		gd := global[d.param].Value.Data()
		gd[d.idx] += d.value
	}
}

// RoundsToTarget returns the 1-based round count at which stats first reach
// accuracy target, or -1 if never.
func RoundsToTarget(stats []RoundStats, target float64) int {
	for _, s := range stats {
		if s.Accuracy >= target {
			return s.Round + 1
		}
	}
	return -1
}

// BytesToTarget returns cumulative up+down traffic when accuracy target was
// first reached, or -1 if never.
func BytesToTarget(stats []RoundStats, target float64) int64 {
	for _, s := range stats {
		if s.Accuracy >= target {
			return s.CumulativeUpBytes + s.CumulativeDownBytes
		}
	}
	return -1
}
