package fedserve

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/leakcheck"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/tensor"
)

// task bundles one synthetic federated train-to-serve setup.
type task struct {
	factory federated.ModelFactory
	shards  []*data.ClientShard
	classes int
	evalX   *tensor.Matrix
	evalY   []int
}

func newTask(t *testing.T, clients int, iid bool) *task {
	t.Helper()
	fb, err := data.GenerateFedBench(data.FedBenchConfig{
		Samples: 600, Classes: 4, Dim: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var shards []*data.ClientShard
	if iid {
		shards, err = data.ShardIID(rng, trX, trY, clients)
	} else {
		shards, err = data.ShardNonIID(rng, trX, trY, clients)
	}
	if err != nil {
		t.Fatal(err)
	}
	factory := func() (*nn.Sequential, error) {
		r := rand.New(rand.NewSource(42))
		return nn.NewSequential(
			nn.NewDense(r, 8, 16),
			nn.NewReLU(),
			nn.NewDense(r, 16, 4),
		), nil
	}
	return &task{factory: factory, shards: shards, classes: 4, evalX: teX, evalY: teY}
}

func (tk *task) config(reg *serve.Registry, model string) Config {
	return Config{
		Factory:     tk.factory,
		Shards:      tk.shards,
		Classes:     tk.classes,
		EvalX:       tk.evalX,
		EvalY:       tk.evalY,
		Rounds:      10,
		LocalEpochs: 2, LocalBatch: 16, LocalLR: 0.1,
		Seed:     1,
		Workers:  4,
		Registry: reg,
		Model:    model,
	}
}

// TestTrainToServeImprovesAcrossVersions is the end-to-end acceptance check:
// the coordinator trains on non-IID shards and hot-publishes into the
// registry while 32 concurrent clients keep predict traffic flowing through
// a serve.Runtime — and the accuracy of served predictions improves across
// at least three auto-published versions. Run under -race this doubles as
// the coordinator/registry/batcher race test.
func TestTrainToServeImprovesAcrossVersions(t *testing.T) {
	tk := newTask(t, 6, false)
	reg := serve.NewRegistry()
	coord, err := NewCoordinator(tk.config(reg, "fedmlp"))
	if err != nil {
		t.Fatal(err)
	}

	// Version 1 (the untrained round-0 model) must be serving already.
	if _, err := reg.Get("fedmlp"); err != nil {
		t.Fatalf("initial version not published: %v", err)
	}

	rt, err := serve.NewRuntime(serve.RuntimeConfig{
		Registry: reg, Model: "fedmlp",
		Batch: serve.BatcherConfig{MaxBatch: 8, MaxDelay: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// 32 concurrent clients hammer predictions across every hot swap.
	ctx, cancel := context.WithCancel(context.Background())
	var clients sync.WaitGroup
	var served, versionSpread atomic.Int64
	seen := make([]atomic.Bool, 64)
	for i := 0; i < 32; i++ {
		clients.Add(1)
		go func(id int) {
			defer clients.Done()
			row := tk.evalX.Row(id % tk.evalX.Rows())
			for ctx.Err() == nil {
				res, err := rt.Predict(ctx, row)
				if err != nil {
					if ctx.Err() == nil && !errors.Is(err, serve.ErrClosed) {
						t.Errorf("client %d: %v", id, err)
					}
					return
				}
				served.Add(1)
				if res.ModelVersion < len(seen) && !seen[res.ModelVersion].Swap(true) {
					versionSpread.Add(1)
				}
			}
		}(i)
	}

	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coord.Wait()
	cancel()
	clients.Wait()

	st := coord.Status()
	if st.State != StateStopped {
		t.Fatalf("state %s after Wait", st.State)
	}
	if len(st.Published) < 3 {
		t.Fatalf("published %d versions, want >= 3 (status %+v)", len(st.Published), st)
	}
	for i := 1; i < len(st.Published); i++ {
		if st.Published[i].Accuracy < st.Published[i-1].Accuracy {
			t.Fatalf("published accuracy regressed: %v", st.Published)
		}
		if st.Published[i].Version <= st.Published[i-1].Version {
			t.Fatalf("versions not increasing: %v", st.Published)
		}
	}
	first, last := st.Published[0], st.Published[len(st.Published)-1]
	if last.Accuracy <= first.Accuracy {
		t.Fatalf("accuracy did not improve: v%d %.3f -> v%d %.3f",
			first.Version, first.Accuracy, last.Version, last.Accuracy)
	}
	if served.Load() == 0 {
		t.Fatal("no predictions served during training")
	}

	// The current registry version carries fedserve provenance on /v1/models.
	var found bool
	for _, info := range reg.Snapshot() {
		if info.Name == "fedmlp" {
			found = true
			if info.Train == nil || info.Train.Source != "fedserve" {
				t.Fatalf("missing train metadata: %+v", info)
			}
			if info.Train.Round != last.Round || info.Train.Accuracy != last.Accuracy {
				t.Fatalf("metadata mismatch: %+v vs published %+v", info.Train, last)
			}
		}
	}
	if !found {
		t.Fatal("fedmlp missing from registry snapshot")
	}
}

// TestCoordinatorDeterministicAcrossWorkers: with a fixed seed, the parallel
// fan-out must reproduce the sequential run bit-for-bit — identical round
// stats and identical final weights.
func TestCoordinatorDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]federated.RoundStats, []byte) {
		tk := newTask(t, 6, true)
		reg := serve.NewRegistry()
		cfg := tk.config(reg, "m")
		cfg.Workers = workers
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		coord.Wait()
		blob, err := reg.Checkpoint("m")
		if err != nil {
			t.Fatal(err)
		}
		return coord.History(), blob
	}
	seqStats, seqBlob := run(1)
	parStats, parBlob := run(4)
	if len(seqStats) != len(parStats) {
		t.Fatalf("round counts differ: %d vs %d", len(seqStats), len(parStats))
	}
	for i := range seqStats {
		if seqStats[i] != parStats[i] {
			t.Fatalf("round %d stats differ:\nseq %+v\npar %+v", i, seqStats[i], parStats[i])
		}
	}
	if !bytes.Equal(seqBlob, parBlob) {
		t.Fatal("final published weights differ between worker counts")
	}
}

// TestCoordinatorRoundMatchesReferenceLoop checks the coordinator against the
// reference loop it shares its pieces with: one round (no selector, no DP)
// must leave the global where one RunFedAvg-style FanOut + MergeWeighted
// round over the same cohort and seeds leaves it.
func TestCoordinatorRoundMatchesReferenceLoop(t *testing.T) {
	tk := newTask(t, 6, false)
	reg := serve.NewRegistry()
	cfg := tk.config(reg, "ref")
	cfg.Rounds = 1
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coord.Wait()
	if st := coord.Status(); st.MergedUpdates != len(tk.shards) {
		t.Fatalf("merged %d updates, want the whole cohort of %d", st.MergedUpdates, len(tk.shards))
	}

	// The coordinator's draw at ClientFraction 1: one shuffle of the eligible
	// set, the cohort sorted, then one seed per client.
	rng := rand.New(rand.NewSource(cfg.Seed))
	selected := make([]int, len(tk.shards))
	for k := range selected {
		selected[k] = k
	}
	rng.Shuffle(len(selected), func(int, int) {})
	seeds := make([]int64, len(selected))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	ref, err := tk.factory()
	if err != nil {
		t.Fatal(err)
	}
	refVals := federated.ParamValues(ref.Params())
	trainer := &federated.SGDTrainer{
		Factory: tk.factory, Classes: tk.classes,
		Epochs: cfg.LocalEpochs, Batch: cfg.LocalBatch, LR: cfg.LocalLR,
	}
	updates, err := federated.FanOut(trainer, tk.shards, 1, selected, refVals, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := federated.MergeWeighted(refVals, updates, nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range coord.vals {
		if !v.Equal(refVals[i], 1e-12) {
			t.Fatalf("param %d: coordinator round diverged from the reference round", i)
		}
	}
}

// TestCoordinatorDPUsesCohortSamplingRatio: with a fixed Cohort the DP
// sampling ratio is Cohort/len(Shards), so the averaging denominator is the
// cohort size and epsilon is priced below the whole-population (q=1) run.
func TestCoordinatorDPUsesCohortSamplingRatio(t *testing.T) {
	run := func(cohort int) (*Coordinator, Status) {
		tk := newTask(t, 6, true)
		cfg := tk.config(serve.NewRegistry(), "dpcohort")
		cfg.Rounds = 4
		cfg.Cohort = cohort
		cfg.DP = &DPConfig{Clip: 5, Sigma: 1}
		cfg.AccuracyDrop = 1
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		coord.Wait()
		return coord, coord.Status()
	}
	whole, wholeSt := run(0)
	part, partSt := run(2)
	if whole.dpDenom != 6 || part.dpDenom != 2 {
		t.Fatalf("DP denominators %v (no cohort) and %v (cohort 2), want 6 and 2", whole.dpDenom, part.dpDenom)
	}
	if partSt.MergedUpdates != 4*2 {
		t.Fatalf("cohort run merged %d updates, want 8", partSt.MergedUpdates)
	}
	if partSt.Epsilon <= 0 || partSt.Epsilon >= wholeSt.Epsilon {
		t.Fatalf("epsilon at q=1/3 is %v, want below the q=1 run's %v", partSt.Epsilon, wholeSt.Epsilon)
	}
}

// TestCoordinatorDPReportsEpsilon: DP aggregation must run, publish, and
// surface a growing privacy spend.
func TestCoordinatorDPReportsEpsilon(t *testing.T) {
	tk := newTask(t, 6, true)
	reg := serve.NewRegistry()
	cfg := tk.config(reg, "dp")
	cfg.Rounds = 6
	cfg.ClientFraction = 0.5
	cfg.DP = &DPConfig{Clip: 5, Sigma: 0.5}
	// Noise can regress individual evals; tolerate small drops so the run
	// still publishes.
	cfg.AccuracyDrop = 0.05
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coord.Wait()
	st := coord.Status()
	if st.Epsilon <= 0 {
		t.Fatalf("DP run reported epsilon %v", st.Epsilon)
	}
	if len(st.Published) < 1 {
		t.Fatal("DP run never published")
	}
}

func TestCoordinatorPauseResumeStop(t *testing.T) {
	leakcheck.Check(t)
	tk := newTask(t, 4, true)
	reg := serve.NewRegistry()
	cfg := tk.config(reg, "ctl")
	cfg.Rounds = 0 // run until stopped
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Pause(); !errors.Is(err, ErrState) {
		t.Fatalf("pausing an idle coordinator: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := coord.Pause(); err != nil {
		t.Fatal(err)
	}
	// Paused at the next round boundary: a round already training when Pause
	// returned finishes (at most that one), then the counter must hold still.
	if st := coord.Status().State; st != StatePaused {
		t.Fatalf("state %s after Pause", st)
	}
	r0 := coord.Status().Round
	deadline := time.Now().Add(5 * time.Second)
	r1 := r0
	for {
		time.Sleep(50 * time.Millisecond)
		r2 := coord.Status().Round
		if r2 == r1 {
			break
		}
		r1 = r2
		if time.Now().After(deadline) {
			t.Fatalf("round counter still advancing while paused: %d -> %d", r0, r1)
		}
	}
	if r1 > r0+1 {
		t.Fatalf("%d rounds completed after Pause returned, want at most the one in progress", r1-r0)
	}
	if err := coord.Start(); err != nil { // resume
		t.Fatal(err)
	}
	coord.Stop()
	coord.Stop() // idempotent
	if st := coord.Status(); st.State != StateStopped {
		t.Fatalf("state %s after stop", st.State)
	}
	if err := coord.Start(); !errors.Is(err, ErrState) {
		t.Fatalf("starting a stopped coordinator: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	tk := newTask(t, 4, true)
	reg := serve.NewRegistry()
	good := tk.config(reg, "v")
	bad := []func(*Config){
		func(c *Config) { c.Factory = nil },
		func(c *Config) { c.Shards = nil },
		func(c *Config) { c.Classes = 1 },
		func(c *Config) { c.EvalX = nil },
		func(c *Config) { c.EvalY = c.EvalY[:1] },
		func(c *Config) { c.Registry = nil },
		func(c *Config) { c.Model = "" },
		func(c *Config) { c.Rounds = -1 },
		func(c *Config) { c.ClientFraction = 1.5 },
		func(c *Config) { c.Quorum = -0.1 },
		func(c *Config) { c.Quorum = 0.5 },
		func(c *Config) { c.LocalLR = 0 },
		func(c *Config) { c.DP = &DPConfig{Clip: 0, Sigma: 1} },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := NewCoordinator(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d: want ErrConfig, got %v", i, err)
		}
	}
	if _, err := NewCoordinator(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	// Quorum survives as a compatibility field: 1 still means synchronous.
	good.Quorum = 1
	if _, err := NewCoordinator(good); err != nil {
		t.Fatalf("Quorum=1 rejected: %v", err)
	}
}
