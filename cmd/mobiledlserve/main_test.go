package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
)

// proc is one in-process mobiledlserve instance driven through runCtx — the
// full production wiring (flags, store, recovery, coordinator, HTTP server,
// shutdown path) minus only the OS process boundary and signal delivery.
type proc struct {
	cancel context.CancelFunc
	done   chan error
	events chan string
	addr   string
}

// startServer boots the server with the given extra flags on an ephemeral
// port and waits for it to listen. Tests share the package-level testEvent
// hook, so instances must not overlap within a test binary (they don't:
// tests run sequentially and every test stops its servers).
func startServer(t *testing.T, extra ...string) *proc {
	t.Helper()
	events := make(chan string, 64)
	testEvent = func(e, d string) { events <- e + "|" + d }
	t.Cleanup(func() { testEvent = nil })

	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-demo-models=false",
		"-drain-grace", "10ms",
		"-trace-sample", "0",
		"-log-level", "error",
	}, extra...)
	ctx, cancel := context.WithCancel(context.Background())
	p := &proc{cancel: cancel, done: make(chan error, 1), events: events}
	go func() { p.done <- runCtx(ctx, args, nil) }()
	select {
	case ev := <-events:
		if !strings.HasPrefix(ev, "listen|") {
			t.Fatalf("first lifecycle event = %q, want listen", ev)
		}
		p.addr = strings.TrimPrefix(ev, "listen|")
	case err := <-p.done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("server never listened")
	}
	return p
}

// stop cancels the run context (the in-process SIGTERM) and returns the
// lifecycle events emitted after "listen", in order.
func (p *proc) stop(t *testing.T) []string {
	t.Helper()
	p.cancel()
	select {
	case err := <-p.done:
		if err != nil {
			t.Fatalf("runCtx returned %v on graceful shutdown", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not shut down")
	}
	var evs []string
	for {
		select {
		case ev := <-p.events:
			evs = append(evs, strings.SplitN(ev, "|", 2)[0])
		default:
			return evs
		}
	}
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postOK(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// TestGracefulShutdownOrdering boots the full process with persistence and
// training enabled, then cancels it and asserts the teardown sequence:
// drain (healthz 503) -> HTTP shutdown -> coordinator stop -> server close
// (batcher drain + registry close) -> store close, strictly in that order.
func TestGracefulShutdownOrdering(t *testing.T) {
	dir := t.TempDir()
	p := startServer(t, "-data-dir", dir, "-train", "-train-clients", "4", "-train-interval", "5ms")

	var hz map[string]string
	if code := getJSON(t, p.url("/healthz"), &hz); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if hz["store"] != "ok" {
		t.Fatalf(`healthz store = %q, want "ok"`, hz["store"])
	}

	evs := p.stop(t)
	want := []string{"drain", "http-shutdown", "coord-stop", "server-close", "store-close"}
	if len(evs) != len(want) {
		t.Fatalf("lifecycle events = %v, want %v", evs, want)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("lifecycle order = %v, want %v", evs, want)
		}
	}
}

// TestHealthzReportsStoreDisabled: without -data-dir the health payload says
// so instead of pretending persistence exists, and /v1/backup 404s.
func TestHealthzReportsStoreDisabled(t *testing.T) {
	p := startServer(t, "-train", "-train-clients", "4")
	defer p.stop(t)

	var hz map[string]string
	getJSON(t, p.url("/healthz"), &hz)
	if hz["store"] != "disabled" {
		t.Fatalf(`healthz store = %q without -data-dir, want "disabled"`, hz["store"])
	}
	if code := getJSON(t, p.url("/v1/backup"), nil); code != http.StatusNotFound {
		t.Fatalf("/v1/backup without a store = %d, want 404", code)
	}
}

// TestRestartResumesFromDataDir is the end-to-end crash-safety acceptance
// path at process scope: run training rounds against a data dir, shut down,
// boot a second instance on the same dir, and observe (a) the federated
// model serving again from its recovered version and (b) the coordinator
// resuming from the checkpointed round — never round 0.
func TestRestartResumesFromDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("trains federated rounds")
	}
	dir := t.TempDir()

	p1 := startServer(t, "-data-dir", dir, "-train", "-train-clients", "4", "-train-interval", "1ms")
	postOK(t, p1.url("/v1/train/start"))
	var round1 int
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			Round     int `json:"round"`
			Published []struct {
				Version int `json:"version"`
			} `json:"published"`
		}
		getJSON(t, p1.url("/v1/train/status"), &st)
		if st.Round >= 2 && len(st.Published) >= 1 {
			round1 = st.Round
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("training never reached round 2 (at %d)", st.Round)
		}
		time.Sleep(20 * time.Millisecond)
	}
	p1.stop(t)

	p2 := startServer(t, "-data-dir", dir, "-train", "-train-clients", "4", "-train-interval", "5ms")
	defer p2.stop(t)

	// The recovered registry serves fedmlp before any new training happens.
	var models []struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
	}
	getJSON(t, p2.url("/v1/models"), &models)
	found := false
	for _, m := range models {
		if m.Name == "fedmlp" {
			found = true
			if m.Version < 1 {
				t.Fatalf("recovered fedmlp at version %d", m.Version)
			}
		}
	}
	if !found {
		t.Fatalf("fedmlp not serving after restart: %+v", models)
	}
	pr, err := http.Post(p2.url("/v1/predict"), "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"model":"fedmlp","features":[%s]}`, sampleFeatures()))))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("predict against recovered model = %d, want 200", pr.StatusCode)
	}

	// The coordinator resumed from the checkpoint: its start round is the
	// first run's progress, not zero.
	var st struct {
		StartRound int `json:"start_round"`
	}
	getJSON(t, p2.url("/v1/train/status"), &st)
	if st.StartRound < 1 {
		t.Fatalf("coordinator resumed at start_round %d after %d trained rounds, want >= 1", st.StartRound, round1)
	}
}

// TestRecoverRefusesPreV1DataDir: a data dir whose publish log holds a
// weights blob from before the v1 format stops the boot with an error that
// names the cause; the process never listens, so nothing stale is served.
func TestRecoverRefusesPreV1DataDir(t *testing.T) {
	old, err := os.ReadFile("../../internal/nn/testdata/weights_gob_2x2.bin")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.PublishRecord{Model: "fedmlp", Version: 1, Kind: "dense", Weights: old, At: time.Unix(100, 0)}
	if err := st.AppendPublish(rec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	testEvent = func(e, d string) {
		if e == "listen" {
			t.Errorf("server listened on %s over a pre-v1 data dir", d)
		}
	}
	t.Cleanup(func() { testEvent = nil })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err = runCtx(ctx, []string{"-addr", "127.0.0.1:0", "-demo-models=false", "-log-level", "error",
		"-data-dir", dir, "-train"}, nil)
	if !errors.Is(err, nn.ErrWeightsFormat) ||
		!strings.Contains(err.Error(), "weights blob predates format v1 (data dir written by an older build)") {
		t.Fatalf("boot over a pre-v1 data dir: err = %v, want ErrWeightsFormat naming the format", err)
	}
}

// TestVersionFlag: -version prints the build stamp and exits cleanly
// without booting anything.
func TestVersionFlag(t *testing.T) {
	if err := runCtx(context.Background(), []string{"-version"}, nil); err != nil {
		t.Fatalf("-version returned %v", err)
	}
}

func sampleFeatures() string {
	var b strings.Builder
	b.WriteString("[")
	for i := 0; i < inputDim; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("0.1")
	}
	b.WriteString("]")
	return b.String()
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
