package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobiledl/internal/leakcheck"
	"mobiledl/internal/metrics"
	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// gateExec blocks every exec call on the gate channel and records the rows
// it actually computed, so tests can prove a pruned request never reached
// the backend.
type gateExec struct {
	gate chan struct{}
	mu   sync.Mutex
	rows []float64 // first feature of every computed row
}

func newGateExec() *gateExec { return &gateExec{gate: make(chan struct{})} }

func (g *gateExec) run(_ context.Context, batch *tensor.Matrix, _ RequestOptions) ([]Result, error) {
	<-g.gate
	g.mu.Lock()
	for i := 0; i < batch.Rows(); i++ {
		g.rows = append(g.rows, batch.At(i, 0))
	}
	g.mu.Unlock()
	out := make([]Result, batch.Rows())
	for i := range out {
		out[i] = Result{Class: int(batch.At(i, 0))}
	}
	return out, nil
}

func (g *gateExec) computed() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]float64(nil), g.rows...)
}

// waitInflight polls until the batcher has admitted want requests.
func waitInflight(t *testing.T, b *Batcher, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Inflight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d, want %d", b.Inflight(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSubmitExpiredInQueueNeverExecutes is the headline-bug regression: a
// queued request whose context deadline passes is answered with
// context.DeadlineExceeded and the backend never computes it.
func TestSubmitExpiredInQueueNeverExecutes(t *testing.T) {
	exec := newGateExec()
	stats := newCollector()
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1}, exec.run, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Occupy the single worker with a request that blocks on the gate.
	first := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), []float64{1}, RequestOptions{})
		first <- err
	}()
	waitInflight(t, b, 1)

	// Queue a second request with a deadline that expires while it waits.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := b.Submit(ctx, []float64{2}, RequestOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired queued submit: %v, want context.DeadlineExceeded", err)
	}

	// Unblock the worker; it serves the first request and prunes the second.
	close(exec.gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	waitInflight(t, b, 0)
	for _, row := range exec.computed() {
		if row == 2 {
			t.Fatal("backend executed a request whose caller had already timed out")
		}
	}
	if got := stats.expired.Load(); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
}

// TestSubmitOverloadShedsFast pins admission control: past MaxInflight,
// Submit fails immediately with ErrOverloaded instead of queueing.
func TestSubmitOverloadShedsFast(t *testing.T) {
	exec := newGateExec()
	stats := newCollector()
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1, MaxInflight: 2}, exec.run, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := b.Submit(context.Background(), []float64{float64(i)}, RequestOptions{})
			done <- err
		}(i)
	}
	waitInflight(t, b, 2)

	start := time.Now()
	_, err = b.Submit(context.Background(), []float64{9}, RequestOptions{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit past the inflight cap: %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed took %v, want fail-fast", elapsed)
	}
	if got := stats.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(exec.gate)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitQueueFullSheds saturates the admission queue itself (tiny
// QueueCap, stalled collector) and expects ErrOverloaded.
func TestSubmitQueueFullSheds(t *testing.T) {
	exec := newGateExec()
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1, QueueCap: 1}, exec.run, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Capacity with Workers=1, QueueCap=1, MaxBatch=1: one executing, one
	// batch buffered, one held by the stalled collector, one in the queue.
	// The first three must clear the queue (the collector picks them up)
	// before the next submit, so the sequencing is deterministic.
	done := make(chan error, 4)
	submit := func(i int) {
		go func() {
			_, err := b.Submit(context.Background(), []float64{float64(i)}, RequestOptions{})
			done <- err
		}()
		waitInflight(t, b, int64(i+1))
	}
	for i := 0; i < 3; i++ {
		submit(i)
		deadline := time.Now().Add(5 * time.Second)
		for b.QueueDepth() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("queue never drained after submit %d", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	submit(3) // sits in the queue: the collector is stalled on a full batch channel
	if _, err := b.Submit(context.Background(), []float64{9}, RequestOptions{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into a full queue: %v, want ErrOverloaded", err)
	}
	close(exec.gate)
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllAbandonedGroupCancelsBackend proves the group-context contract:
// when every submitter in a batch gives up, the backend's context fires so
// a cancellation-honoring backend stops computing.
func TestAllAbandonedGroupCancelsBackend(t *testing.T) {
	execDone := make(chan error, 1)
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 2, MaxDelay: time.Millisecond, Workers: 1},
		func(ctx context.Context, m *tensor.Matrix, _ RequestOptions) ([]Result, error) {
			select {
			case <-ctx.Done():
				execDone <- ctx.Err()
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				execDone <- nil
				return make([]Result, m.Rows()), nil
			}
		}, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(ctx, []float64{1}, RequestOptions{}); !errors.Is(err, context.Canceled) {
				t.Errorf("abandoned submit: %v, want context.Canceled", err)
			}
		}()
	}
	waitInflight(t, b, 2)
	time.Sleep(5 * time.Millisecond) // let the batch reach the backend
	cancel()
	wg.Wait()
	select {
	case err := <-execDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("backend finished with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backend never observed the all-abandoned cancellation")
	}
}

// TestCloseDrainsQueuedRequests pins graceful shutdown: requests admitted
// before Close are answered, not dropped.
func TestCloseDrainsQueuedRequests(t *testing.T) {
	leakcheck.Check(t)
	// The exec ignores its context (like the shipped backends), so Close
	// must drain every queued request to completion. The gate holds the
	// workers until Close has begun, so all n requests are provably still
	// in flight when shutdown starts.
	exec := newGateExec()
	b, err := NewBatcher(1, BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 2}, exec.run, newCollector())
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			res, err := b.Submit(context.Background(), []float64{float64(i)}, RequestOptions{})
			if err == nil && res.Class != i {
				err = errors.New("wrong answer after drain")
			}
			done <- err
		}(i)
	}
	waitInflight(t, b, n)
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	close(exec.gate)
	<-closed
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("request dropped during graceful shutdown: %v", err)
		}
	}
	if got := b.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

// blockBackend is a Backend whose RunBatch blocks until released — the
// server-level stand-in for a saturated model.
type blockBackend struct {
	gate chan struct{}
	dim  int
}

func (bb *blockBackend) Describe() BackendInfo {
	return BackendInfo{Kind: "dense", Algorithm: "block", InputDim: bb.dim, Classes: 2}
}
func (bb *blockBackend) RunBatch(ctx context.Context, _ *ExecEnv, batch *tensor.Matrix, _ RequestOptions) (BatchResult, error) {
	select {
	case <-bb.gate:
	case <-ctx.Done():
		return BatchResult{}, ctx.Err()
	}
	return BatchResult{Results: make([]Result, batch.Rows())}, nil
}
func (bb *blockBackend) Params() []*nn.Param { return nil }
func (bb *blockBackend) Close() error        { return nil }

// TestServerOverloadIs429AndMetered drives the whole stack: a saturated
// runtime sheds with HTTP 429 + Retry-After, and /metrics reports the shed
// count.
func TestServerOverloadIs429AndMetered(t *testing.T) {
	reg := NewRegistry()
	bb := &blockBackend{gate: make(chan struct{}), dim: 2}
	if _, err := reg.Install("block", bb); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "block",
		Batch: BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1, MaxInflight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Add(rt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	body := func() []byte {
		b, _ := json.Marshal(PredictRequest{Model: "block", Features: [][]float64{{1, 2}}})
		return b
	}()

	// Fill the single admission slot, then expect the next request to shed.
	firstDone := make(chan struct{})
	go func() {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		close(firstDone)
	}()
	waitInflight(t, rt.batcher, 1)

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated predict returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(bb.gate)
	<-firstDone

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := metrics.ParseProm(string(text))
	if err != nil {
		t.Fatalf("/metrics payload unparseable: %v\n%s", err, text)
	}
	shed, ok := scrape.Value("mobiledl_requests_shed_total", metrics.Label{Name: "model", Value: "block"})
	if !ok || shed != 1 {
		t.Fatalf("/metrics shed count = %v (found %v), want 1:\n%s", shed, ok, text)
	}
	if scrape.Type("mobiledl_request_latency_ms") != "histogram" {
		t.Fatal("/metrics missing the latency histogram family")
	}
	srv.Close()
}

// TestServerTimeoutIs504 pins the deadline budget: a request whose
// timeout_ms expires before the backend answers returns 504 Gateway
// Timeout.
func TestServerTimeoutIs504(t *testing.T) {
	reg := NewRegistry()
	bb := &blockBackend{gate: make(chan struct{}), dim: 2}
	if _, err := reg.Install("block", bb); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "block",
		Batch: BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Add(rt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(bb.gate); srv.Close() })

	body, _ := json.Marshal(PredictRequest{Model: "block", Features: [][]float64{{1, 2}}, TimeoutMs: 10})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired predict returned %d, want 504", resp.StatusCode)
	}
}

// TestServerNegativeTimeoutIs400 rejects a nonsensical budget up front.
func TestServerNegativeTimeoutIs400(t *testing.T) {
	ts, _ := newErrorTestServer(t)
	body, _ := json.Marshal(PredictRequest{Model: "mlp", Features: [][]float64{make([]float64, 8)}, TimeoutMs: -5})
	resp, _ := postPredict(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms returned %d, want 400", resp.StatusCode)
	}
}

// TestRequestBudget pins the deadline derivation: no timeout_ms inherits the
// server default, an ask is honored up to the 30 s cap, and an ask too large
// for a Duration in nanoseconds is capped rather than overflowing into a
// negative (no deadline) or tiny budget.
func TestRequestBudget(t *testing.T) {
	const def = 200 * time.Millisecond
	for _, c := range []struct {
		ms   int
		want time.Duration
	}{
		{0, def},
		{250, 250 * time.Millisecond},
		{30_000, 30 * time.Second},
		{10_000_000_000_000, 30 * time.Second},
		{18446744073710, 30 * time.Second},
		{math.MaxInt, 30 * time.Second},
	} {
		if got := requestBudget(def, c.ms); got != c.want {
			t.Errorf("timeout_ms %d: budget %v, want %v", c.ms, got, c.want)
		}
	}
}

// stallBackend answers class = first feature, except that a batch whose first
// feature is negative first waits for a token on gate, deaf to its context: a
// worker still holding a request's features after the request expired.
type stallBackend struct{ blockBackend }

func (sb *stallBackend) RunBatch(_ context.Context, _ *ExecEnv, batch *tensor.Matrix, _ RequestOptions) (BatchResult, error) {
	if batch.At(0, 0) < 0 {
		<-sb.gate
	}
	out := make([]Result, batch.Rows())
	for i := range out {
		out[i].Class = int(batch.At(i, 0))
	}
	return BatchResult{Results: out}, nil
}

// TestServerExpiredRequestKeepsItsFeatureBuffer pins the pooled-feature
// lifetime: submit returns on ctx.Done() with no word from the worker that
// read the row, so a request that ends in 504 must not hand its feature
// buffer to the next request. The worker is held in the backend, with no
// synchronization after its copy of the expired row, while the next request
// decodes; under -race a recycled buffer shows as that decode's write racing
// the copy.
func TestServerExpiredRequestKeepsItsFeatureBuffer(t *testing.T) {
	reg := NewRegistry()
	sb := &stallBackend{blockBackend{gate: make(chan struct{}), dim: 2}}
	if _, err := reg.Install("stall", sb); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "stall",
		Batch: BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Add(rt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	for i := 1; i <= 8; i++ {
		resp, _ := postPredict(t, ts, []byte(`{"model":"stall","features":[[-1,0]],"timeout_ms":5}`))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("stalled predict returned %d, want 504", resp.StatusCode)
		}
		// The next request on the same connection decodes at once, and is
		// admitted behind the row the worker is still holding.
		next := make(chan *http.Response, 1)
		go func() {
			body := fmt.Sprintf(`{"model":"stall","features":[[%d,0]]}`, i)
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
			}
			next <- resp
		}()
		waitInflight(t, rt.batcher, 2)
		sb.gate <- struct{}{}
		resp = <-next
		if resp == nil {
			t.FailNow()
		}
		var pr PredictResponse
		err := json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || len(pr.Rows) != 1 || pr.Rows[0].Class != i {
			t.Fatalf("request after an expired one: %+v, err %v, want class %d", pr, err, i)
		}
	}
}
