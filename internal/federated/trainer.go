package federated

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
	"mobiledl/internal/tensor"
)

// ClientResult is one client's locally-trained contribution to a round.
type ClientResult struct {
	// Weights are the post-training parameter values, aligned index-by-index
	// with the global parameter list. They alias the client's throwaway local
	// model, so aggregators may consume them destructively.
	Weights []*tensor.Matrix
	// N is the client's local sample count (n_k in the paper's notation).
	N int
	// Loss is the final local training loss.
	Loss float64
}

// Trainer turns the current global parameter values into one client's round
// contribution. Implementations must be safe for concurrent TrainClient
// calls: FanOut invokes them from every worker of the round pool, and all
// randomness must derive from the per-call seed so results are independent
// of goroutine scheduling.
type Trainer interface {
	TrainClient(shard *data.ClientShard, global []*tensor.Matrix, seed int64) (ClientResult, error)
}

// SGDTrainer is the reference Trainer: copy the global weights into a fresh
// factory-built model, run E local epochs of minibatch SGD, return the
// resulting weights. It is the client-side step of both FedAvg and DP-FedAvg.
type SGDTrainer struct {
	Factory ModelFactory
	Classes int
	Epochs  int
	// Batch is the local minibatch size (<= 0 means full batch).
	Batch int
	LR    float64
}

var _ Trainer = (*SGDTrainer)(nil)

// TrainClient implements Trainer.
func (t *SGDTrainer) TrainClient(shard *data.ClientShard, global []*tensor.Matrix, seed int64) (ClientResult, error) {
	local, err := t.Factory()
	if err != nil {
		return ClientResult{}, err
	}
	if err := SetWeights(local.Params(), global); err != nil {
		return ClientResult{}, err
	}
	y, err := nn.OneHot(shard.Labels, t.Classes)
	if err != nil {
		return ClientResult{}, err
	}
	batch := t.Batch
	if batch <= 0 || batch > shard.Size() {
		batch = shard.Size()
	}
	losses, err := nn.Train(local, shard.X, y, nn.TrainConfig{
		Epochs:    t.Epochs,
		BatchSize: batch,
		Optimizer: opt.NewSGD(t.LR),
		Loss:      nn.NewSoftmaxCrossEntropy(),
		Rng:       rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return ClientResult{}, err
	}
	return ClientResult{Weights: ParamValues(local.Params()), N: shard.Size(), Loss: losses[len(losses)-1]}, nil
}

// ParamValues extracts the value matrices of a parameter list, the form
// Trainer consumes (values only — client training never sees server-side
// gradients).
func ParamValues(params []*nn.Param) []*tensor.Matrix {
	vals := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		vals[i] = p.Value
	}
	return vals
}

// SetWeights copies the value matrices into the parameter list, shape-checked
// index-by-index (the inverse of ParamValues for a factory-aligned model).
func SetWeights(params []*nn.Param, vals []*tensor.Matrix) error {
	if len(params) != len(vals) {
		return fmt.Errorf("%w: %d values for %d params", ErrConfig, len(vals), len(params))
	}
	for i, p := range params {
		if err := p.Value.CopyFrom(vals[i]); err != nil {
			return fmt.Errorf("param %q: %w", p.Name, err)
		}
	}
	return nil
}

// Update is one client's outcome of a fanned-out round: the trainer's result
// or its error, the client it belongs to, and the wall-clock window a worker
// spent on it. The times feed trace spans and operator reports only; nothing
// that reaches the global model may depend on them.
type Update struct {
	ClientResult
	Client     int
	Err        error
	Start, End time.Time
}

// FanOut trains one round's selected clients concurrently across a bounded
// worker pool, waits for all of them, and returns their outcomes in selection
// order: update i is always client selected[i] trained from seeds[i], so the
// output is independent of goroutine scheduling and a parallel round
// reproduces the sequential one bit-for-bit. A client's training error is
// recorded in its Update and the rest of the cohort still trains; only a
// malformed call returns an error. A Trainer that also implements
// ClientTrainer receives (round, k) with each call. workers <= 0 sizes the
// pool to GOMAXPROCS.
func FanOut(t Trainer, shards []*data.ClientShard, round int, selected []int, global []*tensor.Matrix, seeds []int64, workers int) ([]Update, error) {
	if len(selected) != len(seeds) {
		return nil, fmt.Errorf("%w: %d selected clients, %d seeds", ErrConfig, len(selected), len(seeds))
	}
	for _, k := range selected {
		if k < 0 || k >= len(shards) {
			return nil, fmt.Errorf("%w: client index %d of %d shards", ErrConfig, k, len(shards))
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(selected) {
		workers = len(selected)
	}
	perClient, _ := t.(ClientTrainer)
	updates := make([]Update, len(selected))
	// Workers claim the next index themselves, so a free worker never waits
	// for the calling goroutine to be scheduled before it can start a client.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(selected) {
					return
				}
				u := &updates[i]
				u.Client = selected[i]
				u.Start = time.Now()
				if perClient != nil {
					u.ClientResult, u.Err = perClient.TrainRoundClient(round, u.Client, shards[u.Client], global, seeds[i])
				} else {
					u.ClientResult, u.Err = t.TrainClient(shards[u.Client], global, seeds[i])
				}
				u.End = time.Now()
			}
		}()
	}
	wg.Wait()
	return updates, nil
}
