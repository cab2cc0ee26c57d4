package federated

import (
	"mobiledl/internal/data"
	"mobiledl/internal/tensor"
)

// ClientTrainer is the identity-aware extension of Trainer: it receives the
// dispatching round and the client's index alongside the shard, so an
// implementation can vary behavior per client and per round — the seam
// scenario simulators use to inject heterogeneous device profiles, churn,
// stragglers, and faulty or adversarial updates without the aggregation
// layer knowing. FanOut probes its Trainer for this interface; plain
// Trainers keep the identity-free path.
//
// The same contract as Trainer applies: implementations must be safe for
// concurrent calls, and all randomness must derive from (round, k, seed) so
// results are independent of goroutine scheduling.
type ClientTrainer interface {
	Trainer
	TrainRoundClient(round, k int, shard *data.ClientShard, global []*tensor.Matrix, seed int64) (ClientResult, error)
}

// ClientFunc adapts a function to ClientTrainer. The plain TrainClient path
// calls the function with round and client -1 (identity unknown).
type ClientFunc func(round, k int, shard *data.ClientShard, global []*tensor.Matrix, seed int64) (ClientResult, error)

var _ ClientTrainer = (ClientFunc)(nil)

// TrainRoundClient implements ClientTrainer.
func (f ClientFunc) TrainRoundClient(round, k int, shard *data.ClientShard, global []*tensor.Matrix, seed int64) (ClientResult, error) {
	return f(round, k, shard, global, seed)
}

// TrainClient implements Trainer.
func (f ClientFunc) TrainClient(shard *data.ClientShard, global []*tensor.Matrix, seed int64) (ClientResult, error) {
	return f(-1, -1, shard, global, seed)
}
