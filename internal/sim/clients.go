package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/tensor"
)

// ErrDropout marks a dispatched client that vanished mid-round (simulated
// churn); the coordinator counts it as a failed client and moves on.
var ErrDropout = errors.New("sim: client dropped out")

// simTimeScale compresses simulated device latency into test-friendly real
// time: a straggler whose round costs N simulated ms sleeps N*simTimeScale
// real ms, capped at simSleepCap so pathological workloads cannot stall a
// round. The sleep shifts wall-clock only — rounds are synchronous, so it
// never changes outcomes, which is what keeps determinism intact.
const (
	simTimeScale = 10
	simSleepCap  = 2 * time.Millisecond
)

// clientSim is the pluggable client behavior: a federated.ClientTrainer that
// wraps the reference SGD trainer with the population's per-client faults —
// hash-deterministic dropout, straggler sleeps from the device cost model,
// stale-base training, and model-replacement poisoning. Every decision
// derives from (seed, round, k), so results are independent of goroutine
// scheduling.
type clientSim struct {
	pop   *Population
	inner *federated.SGDTrainer
	sleep bool

	// Stale-base rotation: the first job of each round deep-copies that
	// round's global weights; stale clients train from the previous round's
	// copy. Rounds are synchronous, so every job of round r carries
	// identical global values and the rotation is deterministic no matter
	// which worker gets there first.
	mu       sync.Mutex
	curRound int
	curBase  []*tensor.Matrix
	prevBase []*tensor.Matrix
}

var _ federated.ClientTrainer = (*clientSim)(nil)

func newClientSim(pop *Population, sc Scenario) *clientSim {
	return &clientSim{
		pop:   pop,
		sleep: sc.StragglerFrac > 0,
		inner: &federated.SGDTrainer{
			Factory: pop.Factory,
			Classes: pop.Classes,
			Epochs:  sc.LocalEpochs,
			Batch:   sc.LocalBatch,
			LR:      sc.LocalLR,
		},
		curRound: -1,
	}
}

// observeRound rotates the stale-base snapshots on the first sighting of a
// new round and returns the base the client should train from.
func (t *clientSim) observeRound(round int, global []*tensor.Matrix, stale bool) []*tensor.Matrix {
	if t.pop.sc.StaleFrac <= 0 {
		return global
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if round != t.curRound {
		if round == t.curRound+1 {
			t.prevBase = t.curBase
		} else {
			t.prevBase = nil
		}
		t.curRound = round
		t.curBase = make([]*tensor.Matrix, len(global))
		for i, g := range global {
			t.curBase[i] = g.Clone()
		}
	}
	if stale && t.prevBase != nil {
		return t.prevBase
	}
	return global
}

// TrainRoundClient implements federated.ClientTrainer.
func (t *clientSim) TrainRoundClient(round, k int, shard *data.ClientShard, global []*tensor.Matrix, seed int64) (federated.ClientResult, error) {
	if round < 0 || k < 0 {
		return t.inner.TrainClient(shard, global, seed)
	}
	if t.pop.droppedOut(round, k) {
		return federated.ClientResult{}, fmt.Errorf("%w: client %d round %d", ErrDropout, k, round)
	}
	pr := t.pop.Profile(k)
	if t.sleep {
		cost := t.pop.TrainCostMs[0]
		if pr.Straggler {
			cost = t.pop.TrainCostMs[1]
		}
		d := time.Duration(cost * simTimeScale * float64(time.Millisecond))
		if d > simSleepCap {
			d = simSleepCap
		}
		if d > 0 {
			time.Sleep(d)
		}
	}
	base := t.observeRound(round, global, pr.Stale)
	res, err := t.inner.TrainClient(shard, base, seed)
	if err != nil {
		return res, err
	}
	if pr.Adversarial {
		poison(res.Weights, global, t.pop.sc.PoisonScale)
	}
	return res, nil
}

// TrainClient implements federated.Trainer (the identity-free path: plain
// honest SGD).
func (t *clientSim) TrainClient(shard *data.ClientShard, global []*tensor.Matrix, seed int64) (federated.ClientResult, error) {
	return t.inner.TrainClient(shard, global, seed)
}

// poison rewrites trained weights as a model-replacement attack: the honest
// delta is sign-flipped and boosted, w' = g - scale*(w - g), so the merged
// update drags the global model away from convergence. The boosted magnitude
// is exactly what the scored selector's norm-anomaly component detects.
func poison(weights, global []*tensor.Matrix, scale float64) {
	for i, w := range weights {
		wd, gd := w.Data(), global[i].Data()
		for j := range wd {
			wd[j] = gd[j] - scale*(wd[j]-gd[j])
		}
	}
}
