package federated

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"mobiledl/internal/data"
	"mobiledl/internal/tensor"
)

// TestFedAvgParallelMatchesSequential: round stats and final weights must be
// bit-identical for any worker count — per-client seeds are drawn before the
// fan-out and merging runs in selection order.
func TestFedAvgParallelMatchesSequential(t *testing.T) {
	run := func(workers int) ([]RoundStats, []*tensor.Matrix) {
		factory, shards, eval, classes := benchSetup(t, 8, false)
		model, stats, err := RunFedAvg(factory, shards, classes, FedAvgConfig{
			Rounds:         8,
			ClientFraction: 0.5,
			LocalEpochs:    2,
			LocalBatch:     16,
			LocalLR:        0.1,
			Seed:           13,
			Workers:        workers,
			Eval:           eval,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, ParamValues(model.Params())
	}
	seqStats, seqW := run(1)
	parStats, parW := run(8)
	if len(seqStats) != len(parStats) {
		t.Fatalf("round counts differ: %d vs %d", len(seqStats), len(parStats))
	}
	for i := range seqStats {
		if seqStats[i] != parStats[i] {
			t.Fatalf("round %d stats differ:\nseq %+v\npar %+v", i, seqStats[i], parStats[i])
		}
	}
	for i := range seqW {
		if !seqW[i].Equal(parW[i], 0) {
			t.Fatalf("param %d differs between worker counts", i)
		}
	}
}

// TestFanOutKeepsGoingPastClientErrors: one client's failure is recorded in
// its own Update while the rest of the cohort trains, an identity-aware
// trainer sees (round, k), every update carries its worker's time window,
// and MergeWeighted refuses the failed update without touching the global.
func TestFanOutKeepsGoingPastClientErrors(t *testing.T) {
	factory, shards, _, classes := benchSetup(t, 4, false)
	inner := &SGDTrainer{Factory: factory, Classes: classes, Epochs: 1, Batch: 16, LR: 0.1}
	boom := errors.New("boom")
	trainer := ClientFunc(func(round, k int, shard *data.ClientShard, global []*tensor.Matrix, seed int64) (ClientResult, error) {
		if round != 7 {
			return ClientResult{}, fmt.Errorf("round %d, want 7", round)
		}
		if k == 2 {
			return ClientResult{}, boom
		}
		return inner.TrainClient(shard, global, seed)
	})
	global, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	globalVals := ParamValues(global.Params())
	before := globalVals[0].Clone()
	selected := []int{0, 2, 3}
	updates, err := FanOut(trainer, shards, 7, selected, globalVals, []int64{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range updates {
		if u.Client != selected[i] {
			t.Fatalf("update %d is client %d, want %d", i, u.Client, selected[i])
		}
		if u.Start.IsZero() || u.End.Before(u.Start) {
			t.Fatalf("update %d has no time window: %v..%v", i, u.Start, u.End)
		}
		if failed := u.Client == 2; failed != (u.Err != nil) || (failed && !errors.Is(u.Err, boom)) {
			t.Fatalf("client %d: err %v", u.Client, u.Err)
		}
	}
	if _, err := MergeWeighted(globalVals, updates, nil); !errors.Is(err, boom) {
		t.Fatalf("merge of a failed update: %v", err)
	}
	if !globalVals[0].Equal(before, 0) {
		t.Fatal("refused merge modified the global")
	}
	if _, err := MergeWeighted(globalVals, []Update{updates[0], updates[2]}, []float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := FanOut(trainer, shards, 7, []int{9}, globalVals, []int64{1}, 1); !errors.Is(err, ErrConfig) {
		t.Fatalf("out-of-range client: %v", err)
	}
}

// BenchmarkFedRound measures one federated round's client fan-out at worker
// counts 1 (the sequential baseline) and GOMAXPROCS. On a multi-core box the
// parallel pool wins roughly linearly; results are identical either way (see
// TestFedAvgParallelMatchesSequential).
func BenchmarkFedRound(b *testing.B) {
	factory, shards, _, classes := benchSetup(b, 8, true)
	trainer := &SGDTrainer{Factory: factory, Classes: classes, Epochs: 3, Batch: 16, LR: 0.1}
	global, err := factory()
	if err != nil {
		b.Fatal(err)
	}
	globalVals := ParamValues(global.Params())
	selected := make([]int, len(shards))
	seeds := make([]int64, len(shards))
	for i := range shards {
		selected[i] = i
		seeds[i] = int64(i + 1)
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				updates, err := FanOut(trainer, shards, i, selected, globalVals, seeds, workers)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := MergeWeighted(globalVals, updates, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
