package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobiledl/internal/tensor"
	"mobiledl/internal/trace"
)

// traceSpanNames collects the set of span names in a retained trace.
func traceSpanNames(td *trace.TraceData) map[string]int {
	names := make(map[string]int)
	for _, sp := range td.Spans {
		names[sp.Name]++
	}
	return names
}

func findSpan(td *trace.TraceData, name string) (trace.SpanData, bool) {
	for _, sp := range td.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return trace.SpanData{}, false
}

// TestTraceIntegrityConcurrentMixedOptions drives 64 concurrent traced
// requests with execution-relevant option differences (TopK 0 vs 2), so the
// batcher splits coalesced flushes into sub-batches — and every request's
// trace must still come out whole: its own queue/batch/exec spans, with the
// batch_size attribute matching the sub-batch the row actually rode. Run
// under -race this is also the proof that span materialization never races
// the batcher's workers.
func TestTraceIntegrityConcurrentMixedOptions(t *testing.T) {
	tracer := trace.New(trace.Config{Sample: 1})
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 1)); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "mlp",
		Batch:  BatcherConfig{MaxBatch: 16, MaxDelay: time.Millisecond},
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const clients = 64
	ids := make([]string, clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Half the clients ask for top-2 probabilities: options differ in
			// an execution-relevant way, so flushes split into sub-batches.
			opts := RequestOptions{}
			if c%2 == 1 {
				opts.TopK = 2
			}
			sp := tracer.Start("test.req")
			ids[c] = sp.TraceID()
			ctx := trace.WithSpan(context.Background(), sp)
			res, err := rt.PredictWith(ctx, make([]float64, 8), opts)
			sp.End()
			if err != nil {
				errCh <- err
				return
			}
			if res.BatchSize < 1 {
				errCh <- fmt.Errorf("client %d: batch size %d", c, res.BatchSize)
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for c, id := range ids {
		td := tracer.Get(id)
		if td == nil {
			t.Fatalf("client %d: trace %s not retained", c, id)
		}
		names := traceSpanNames(td)
		for _, want := range []string{"test.req", "queue", "batch", "exec"} {
			if names[want] != 1 {
				t.Fatalf("client %d trace has %d %q spans (spans: %v)", c, names[want], want, names)
			}
		}
		batch, _ := findSpan(td, "batch")
		exec, _ := findSpan(td, "exec")
		if exec.Parent != batch.ID {
			t.Fatalf("client %d: exec parented to %d, want batch %d", c, exec.Parent, batch.ID)
		}
		if batch.Attrs["batch_size"].(float64) < 1 {
			t.Fatalf("client %d: batch span attrs %v", c, batch.Attrs)
		}
	}
}

// TestServerTraceparentRoundTrip sends a predict request carrying a sampled
// W3C traceparent and verifies the server joins the caller's trace: the
// response echoes a traceparent with the same trace id, and the retained
// trace records the remote parent and the full span tree.
func TestServerTraceparentRoundTrip(t *testing.T) {
	tracer := trace.New(trace.Config{Sample: -1}) // join-only: no head sampling
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 1)); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(reg, ServerConfig{Tracer: tracer})
	defer srv.Close()
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "mlp",
		Batch: BatcherConfig{MaxBatch: 4, MaxDelay: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Add(rt)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const caller = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	body, _ := json.Marshal(PredictRequest{Model: "mlp", Features: [][]float64{make([]float64, 8)}})
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/predict", bytes.NewReader(body))
	req.Header.Set("traceparent", caller)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict: %d %s", resp.StatusCode, b)
	}
	echo := resp.Header.Get("traceparent")
	wantID := "4bf92f3577b34da6a3ce929d0e0e4736"
	if id, _, sampled, ok := trace.ParseTraceparent(echo); !ok || id.String() != wantID || !sampled {
		t.Fatalf("response traceparent %q does not continue trace %s", echo, wantID)
	}

	// An unsampled traceparent must not trace.
	req2, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/predict", bytes.NewReader(body))
	req2.Header.Set("traceparent", caller[:53]+"00")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("traceparent"); got != "" {
		t.Fatalf("unsampled request was traced: %q", got)
	}

	// The joined trace is queryable by the caller's id, names its remote
	// parent, and holds the whole request tree.
	tr, err := http.Get(hs.URL + "/v1/trace/" + wantID)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace/%s: %d", wantID, tr.StatusCode)
	}
	var td trace.TraceData
	if err := json.NewDecoder(tr.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.RemoteParent != "00f067aa0ba902b7" {
		t.Fatalf("RemoteParent = %q, want caller's span id", td.RemoteParent)
	}
	names := traceSpanNames(&td)
	for _, want := range []string{"http.predict", "row", "queue", "batch", "exec"} {
		if names[want] == 0 {
			t.Fatalf("joined trace missing %q span: %v", want, names)
		}
	}
	// The root span carries the codec's share of the request: the span opens
	// after decode (it needs the model name), so decode rides as an attribute.
	root, _ := findSpan(&td, "http.predict")
	for _, attr := range []string{"decode_us", "encode_us"} {
		if v, ok := root.Attrs[attr].(float64); !ok || v < 0 {
			t.Fatalf("http.predict %s = %v, want a non-negative number: %v", attr, root.Attrs[attr], root.Attrs)
		}
	}
	if v, _ := root.Attrs["body_bytes"].(float64); v != float64(len(body)) {
		t.Fatalf("http.predict body_bytes = %v, want %d", root.Attrs["body_bytes"], len(body))
	}
}

// TestCascadeTraceSpanTree is the acceptance check for the span hierarchy: a
// traced cascade predict whose rows offload must retain a trace with queue,
// batch, exec, device-half, and cloud-half spans, all with non-zero
// durations, plus the early-exit decision and simulated uplink.
func TestCascadeTraceSpanTree(t *testing.T) {
	ee, err := newCascade(5)
	if err != nil {
		t.Fatal(err)
	}
	ee.Threshold = 1.01 // never confident: every row takes the cloud path
	cb, err := NewCascadeBackend(ee)
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.Config{Sample: 1})
	reg := NewRegistry()
	if _, err := reg.Install("cascade", cb); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(reg, ServerConfig{Tracer: tracer})
	defer srv.Close()
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "cascade",
		Batch: BatcherConfig{MaxBatch: 4, MaxDelay: 200 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Add(rt)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(PredictRequest{
		Model:    "cascade",
		Features: [][]float64{make([]float64, 8), make([]float64, 8)},
	})
	resp, err := http.Post(hs.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict: %d %s", resp.StatusCode, b)
	}
	id, _, _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("no traceparent on response (header %q)", resp.Header.Get("traceparent"))
	}

	tres, err := http.Get(hs.URL + "/v1/trace/" + id.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tres.Body.Close()
	var td trace.TraceData
	if err := json.NewDecoder(tres.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	names := traceSpanNames(&td)
	for _, want := range []string{
		"http.predict", "queue", "batch", "exec",
		"cascade.device", "cascade.exit", "cascade.perturb", "cascade.uplink", "cascade.cloud",
	} {
		if names[want] == 0 {
			t.Fatalf("cascade trace missing %q span (have %v)", want, names)
		}
	}
	for _, name := range []string{"queue", "batch", "exec", "cascade.device", "cascade.cloud"} {
		sp, _ := findSpan(&td, name)
		if sp.DurationMs <= 0 {
			t.Errorf("span %q has zero duration", name)
		}
	}
	// The early-exit decision carries its offload accounting.
	exit, _ := findSpan(&td, "cascade.exit")
	if exit.Attrs["offloads"].(float64) < 1 {
		t.Fatalf("exit span attrs %v: expected offloads >= 1 at threshold 1.01", exit.Attrs)
	}
	// Structure: device half is a child of exec, which is a child of batch.
	exec, _ := findSpan(&td, "exec")
	dev, _ := findSpan(&td, "cascade.device")
	if dev.Parent != exec.ID {
		t.Fatalf("cascade.device parented to %d, want exec %d", dev.Parent, exec.ID)
	}
}

// TestHealthzDraining verifies the readiness flip: 200 while serving, 503
// with a JSON body once draining starts, and /v1/trace stays queryable.
func TestHealthzDraining(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 1)); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(reg, ServerConfig{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	check := func(wantStatus int, wantBody string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("healthz status %d, want %d", resp.StatusCode, wantStatus)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("healthz body not JSON: %v", err)
		}
		if body["status"] != wantBody {
			t.Fatalf("healthz status field %q, want %q", body["status"], wantBody)
		}
	}
	check(http.StatusOK, "ok")
	if srv.Draining() {
		t.Fatal("fresh server reports draining")
	}
	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("StartDrain did not mark draining")
	}
	check(http.StatusServiceUnavailable, "draining")
	// Idempotent.
	srv.StartDrain()
	check(http.StatusServiceUnavailable, "draining")
}

// TestBuildInfoAndTraceMetrics verifies /metrics exports the build identity
// gauge and, with a tracer attached, the trace lifecycle counters.
func TestBuildInfoAndTraceMetrics(t *testing.T) {
	tracer := trace.New(trace.Config{Sample: 1})
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 1)); err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(reg, ServerConfig{Tracer: tracer})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	sp := tracer.Start("warm")
	sp.End()

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	if !strings.Contains(text, `mobiledl_build_info{`) ||
		!strings.Contains(text, `version="dev"`) ||
		!strings.Contains(text, `goversion="go`) {
		t.Fatalf("/metrics missing build info gauge:\n%s", text)
	}
	if !strings.Contains(text, "mobiledl_traces_started_total 1") ||
		!strings.Contains(text, "mobiledl_traces_finished_total 1") {
		t.Fatalf("/metrics missing trace counters:\n%s", text)
	}
}

// TestTraceEndpointWithoutTracer verifies the trace API 404s cleanly when
// tracing is disabled.
func TestTraceEndpointWithoutTracer(t *testing.T) {
	reg := NewRegistry()
	srv := NewServerWith(reg, ServerConfig{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/v1/trace/recent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint with no tracer: %d, want 404", resp.StatusCode)
	}
}

// TestBatchErrorLoggedRateLimited drives repeated backend failures through
// the batcher and verifies exactly one structured error line lands within
// the rate-limit window — carrying the model, batch size, and the trace ids
// of the traced rows — instead of the failures vanishing into per-row
// errors (or one line per batch flooding the log).
func TestBatchErrorLoggedRateLimited(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	handler := slog.NewTextHandler(lockedWriter{&mu, &buf}, &slog.HandlerOptions{Level: slog.LevelError})
	boom := errors.New("backend exploded")
	exec := func(context.Context, *tensor.Matrix, RequestOptions) ([]Result, error) {
		return nil, boom
	}
	b, err := NewBatcher(4, BatcherConfig{MaxBatch: 4, MaxDelay: 100 * time.Microsecond}, exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.logger = slog.New(handler)
	b.model = "mlp"

	tracer := trace.New(trace.Config{Sample: 1})
	for i := 0; i < 5; i++ {
		sp := tracer.Start("req")
		ctx := trace.WithSpan(context.Background(), sp)
		if _, err := b.Submit(ctx, make([]float64, 4), RequestOptions{}); !errors.Is(err, boom) {
			t.Fatalf("submit %d: err = %v, want the backend error", i, err)
		}
		sp.EndErr(err)
	}

	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if n := strings.Count(logged, "batch execution failed"); n != 1 {
		t.Fatalf("5 failing batches inside the rate window logged %d lines, want 1:\n%s", n, logged)
	}
	if !strings.Contains(logged, "model=mlp") || !strings.Contains(logged, "batch_size=") {
		t.Fatalf("error line missing context:\n%s", logged)
	}
	if !strings.Contains(logged, "trace_ids=") || strings.Contains(logged, "trace_ids=[]") {
		t.Fatalf("error line missing trace correlation:\n%s", logged)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
