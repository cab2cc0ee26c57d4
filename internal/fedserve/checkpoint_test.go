package fedserve

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
)

// memCheckpoints is an in-memory CheckpointStore with a switchable failure
// mode — the unit-test stand-in for the WAL-backed store (whose integration
// with the coordinator is exercised in internal/store's crash suite).
type memCheckpoints struct {
	mu      sync.Mutex
	data    map[string][]byte
	saves   int
	failing bool
}

var errCkStore = errors.New("checkpoint store down")

func newMemCheckpoints() *memCheckpoints {
	return &memCheckpoints{data: make(map[string][]byte)}
}

func (m *memCheckpoints) SaveCheckpoint(key string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failing {
		return errCkStore
	}
	m.data[key] = append([]byte(nil), payload...)
	m.saves++
	return nil
}

func (m *memCheckpoints) LoadCheckpoint(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failing {
		return nil, false, errCkStore
	}
	b, ok := m.data[key]
	return b, ok, nil
}

func (m *memCheckpoints) setFailing(on bool) {
	m.mu.Lock()
	m.failing = on
	m.mu.Unlock()
}

func (m *memCheckpoints) saveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

// runToCompletion drives a bounded coordinator run and returns its final
// status.
func runToCompletion(t *testing.T, cfg Config) Status {
	t.Helper()
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	coord.Wait()
	coord.Stop()
	return coord.Status()
}

func TestCoordinatorResumesFromCheckpoint(t *testing.T) {
	tk := newTask(t, 4, true)
	cks := newMemCheckpoints()

	reg1 := serve.NewRegistry()
	cfg := tk.config(reg1, "fedmlp")
	cfg.Rounds = 4
	cfg.Checkpoint = cks
	st1 := runToCompletion(t, cfg)
	if st1.Round != 4 {
		t.Fatalf("first run ended at round %d, want 4", st1.Round)
	}
	if st1.Checkpoints == 0 {
		t.Fatal("first run persisted no checkpoints")
	}

	// "Restart": a fresh registry and coordinator over the same store. The
	// run must continue the absolute round numbering — never round 0 when a
	// checkpoint exists — and carry the counters forward.
	reg2 := serve.NewRegistry()
	cfg2 := tk.config(reg2, "fedmlp")
	cfg2.Rounds = 3
	cfg2.Checkpoint = cks
	st2 := runToCompletion(t, cfg2)
	if st2.StartRound != 4 {
		t.Fatalf("resumed StartRound = %d, want 4", st2.StartRound)
	}
	if st2.Round != 7 {
		t.Fatalf("resumed run ended at round %d, want 7 (4 checkpointed + 3 new)", st2.Round)
	}
	if st2.MergedUpdates <= st1.MergedUpdates {
		t.Fatalf("resumed MergedUpdates = %d, want > %d (counters carry forward)",
			st2.MergedUpdates, st1.MergedUpdates)
	}
	if st2.BestAccuracy < st1.BestAccuracy {
		t.Fatalf("resumed BestAccuracy %v regressed below checkpointed %v",
			st2.BestAccuracy, st1.BestAccuracy)
	}
	// The resumed coordinator republished the checkpointed weights (its
	// registry was empty), so serving was live from construction.
	if _, err := reg2.Get("fedmlp"); err != nil {
		t.Fatalf("resumed coordinator left nothing serving: %v", err)
	}
}

func TestResumeSkipsRepublishWhenRegistryRecovered(t *testing.T) {
	tk := newTask(t, 4, true)
	cks := newMemCheckpoints()

	reg1 := serve.NewRegistry()
	cfg := tk.config(reg1, "fedmlp")
	cfg.Rounds = 2
	cfg.Checkpoint = cks
	runToCompletion(t, cfg)

	// Simulate registry boot recovery having already reinstalled the model:
	// construct the coordinator against a registry that serves it. The
	// recovered version must keep serving — no extra version burned.
	reg2 := serve.NewRegistry()
	m, err := tk.factory()
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.NewDenseBackend(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.Install("fedmlp", b); err != nil {
		t.Fatal(err)
	}
	before, _ := reg2.Get("fedmlp")

	cfg2 := tk.config(reg2, "fedmlp")
	cfg2.Rounds = 1
	cfg2.Checkpoint = cks
	coord, err := NewCoordinator(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	after, err := reg2.Get("fedmlp")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version {
		t.Fatalf("construction republished: version %d -> %d", before.Version, after.Version)
	}
	if coord.Status().StartRound != 2 {
		t.Fatalf("StartRound = %d, want 2", coord.Status().StartRound)
	}
}

func TestCheckpointFailureDegradesGracefully(t *testing.T) {
	tk := newTask(t, 4, true)
	cks := newMemCheckpoints()
	cks.setFailing(true)

	reg := serve.NewRegistry()
	cfg := tk.config(reg, "fedmlp")
	cfg.Rounds = 3
	cfg.Checkpoint = cks
	st := runToCompletion(t, cfg)
	// Training ran to completion despite every save (and the initial load)
	// failing; the errors are surfaced, not fatal.
	if st.Round != 3 {
		t.Fatalf("run with failing store ended at round %d, want 3", st.Round)
	}
	if st.Checkpoints != 0 || st.CheckpointErrors == 0 {
		t.Fatalf("Checkpoints=%d CheckpointErrors=%d, want 0 and >0", st.Checkpoints, st.CheckpointErrors)
	}
	if st.StartRound != 0 {
		t.Fatalf("StartRound = %d on unreadable store, want 0", st.StartRound)
	}
}

func TestCorruptCheckpointStartsFresh(t *testing.T) {
	tk := newTask(t, 4, true)
	cks := newMemCheckpoints()
	cks.data[checkpointKey("fedmlp")] = []byte("not a gob checkpoint")

	reg := serve.NewRegistry()
	cfg := tk.config(reg, "fedmlp")
	cfg.Rounds = 2
	cfg.Checkpoint = cks
	st := runToCompletion(t, cfg)
	if st.StartRound != 0 || st.Round != 2 {
		t.Fatalf("StartRound=%d Round=%d after corrupt checkpoint, want 0 and 2", st.StartRound, st.Round)
	}
	if st.CheckpointErrors == 0 {
		t.Fatal("corrupt checkpoint not counted as an error")
	}
}

// TestResumeRefusesPreV1Checkpoint: a checkpoint whose weights blob comes
// from the gob-based format that preceded v1 is a hard boot error naming
// the cause, not a fresh start and not an architecture mismatch.
func TestResumeRefusesPreV1Checkpoint(t *testing.T) {
	old, err := os.ReadFile("../nn/testdata/weights_gob_2x2.bin")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeCheckpoint(checkpointWire{Round: 3, Weights: old})
	if err != nil {
		t.Fatal(err)
	}
	tk := newTask(t, 4, true)
	cks := newMemCheckpoints()
	cks.data[checkpointKey("fedmlp")] = payload
	cfg := tk.config(serve.NewRegistry(), "fedmlp")
	cfg.Checkpoint = cks
	_, err = NewCoordinator(cfg)
	if !errors.Is(err, nn.ErrWeightsFormat) || !strings.Contains(err.Error(), "predates format v1") {
		t.Fatalf("NewCoordinator over a pre-v1 checkpoint: err = %v, want ErrWeightsFormat naming the format", err)
	}
}

func TestCheckpointCadence(t *testing.T) {
	tk := newTask(t, 4, true)
	cks := newMemCheckpoints()

	reg := serve.NewRegistry()
	cfg := tk.config(reg, "fedmlp")
	cfg.Rounds = 6
	cfg.Checkpoint = cks
	st := runToCompletion(t, cfg)
	// Every round merges updates, so every round is followed by a save.
	if st.Checkpoints != 6 {
		t.Fatalf("Checkpoints = %d over 6 merging rounds, want 6", st.Checkpoints)
	}
	if cks.saveCount() != 6 {
		t.Fatalf("store saw %d saves, want 6", cks.saveCount())
	}
}
