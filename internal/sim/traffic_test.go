package sim

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobiledl/internal/metrics"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/tensor"
)

// TestDiurnalBurstMeetsSLO runs the diurnal-burst scenario end to end:
// training publishes versions while the traffic generator replays a
// compressed day against the live serving stack, and the p99/shed/error SLO
// must hold on the /metrics deltas.
func TestDiurnalBurstMeetsSLO(t *testing.T) {
	sc := DiurnalBurst()
	sc.Clients = simClients(t)
	if testing.Short() {
		sc.Replay.Duration = 1500 * time.Millisecond
	}
	r, err := Run(context.Background(), sc, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Replay) != 1 || r.Replay[0] == nil {
		t.Fatalf("expected one replay outcome, got %+v", r.Replay)
	}
	rep := r.Replay[0]
	if rep.Statuses[200] == 0 {
		t.Fatalf("replay served no requests: statuses %v", rep.Statuses)
	}
	if !rep.SLOPass {
		t.Fatalf("SLO violated: %v (p99 %.1fms, shed %.4f, err %.4f, statuses %v)",
			rep.Violations, rep.P99Ms, rep.ShedRate, rep.ErrorRate, rep.Statuses)
	}
	if r.BestAccuracy < 0.75 {
		t.Fatalf("training under replay failed to converge: best %.4f", r.BestAccuracy)
	}
}

// slowBackend answers every batch after a fixed delay — the hard capacity
// ceiling the overload test saturates (one worker, 20ms/batch ~= 50 rps).
type slowBackend struct {
	dim   int
	delay time.Duration
}

func (b *slowBackend) Describe() serve.BackendInfo {
	return serve.BackendInfo{Kind: "dense", Algorithm: "slow", InputDim: b.dim, Classes: 2}
}
func (b *slowBackend) RunBatch(ctx context.Context, _ *serve.ExecEnv, batch *tensor.Matrix, _ serve.RequestOptions) (serve.BatchResult, error) {
	select {
	case <-time.After(b.delay):
	case <-ctx.Done():
		return serve.BatchResult{}, ctx.Err()
	}
	return serve.BatchResult{Results: make([]serve.Result, batch.Rows())}, nil
}
func (b *slowBackend) Params() []*nn.Param { return nil }
func (b *slowBackend) Close() error        { return nil }

// overloadStack builds a deliberately tiny-capacity serving stack: a slow
// backend behind one worker and a 40-deep admission window.
func overloadStack(t *testing.T) (*httptest.Server, *serve.Server) {
	t.Helper()
	reg := serve.NewRegistry()
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.Install("sim", &slowBackend{dim: benchDim, delay: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServerWith(reg, serve.ServerConfig{DefaultTimeout: 500 * time.Millisecond})
	rt, err := serve.NewRuntime(serve.RuntimeConfig{
		Registry: reg, Model: "sim",
		Batch: serve.BatcherConfig{
			MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 1,
			MaxInflight: 40, QueueCap: 40,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Add(rt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestOverloadContractUnderBurst is the serve-overload interplay test: a
// diurnal burst into a throttled stack must surface the full degradation
// contract — 429 with Retry-After at admission, 504 for expired deadlines,
// 503 once closed — with the shed/expired counters visibly rising in a
// mid-replay /metrics scrape.
func TestOverloadContractUnderBurst(t *testing.T) {
	ts, srv := overloadStack(t)
	row := make([]float64, benchDim)
	body, err := predictBody("sim", row, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Saturate admission with a concurrent volley and catch a 429: it must
	// carry Retry-After. (Runs before the replay, so its traffic lands in
	// the replay's baseline scrape, not its deltas.)
	var retryAfter atomic.Value
	var volley sync.WaitGroup
	for i := 0; i < 80; i++ {
		volley.Add(1)
		go func() {
			defer volley.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter.Store(resp.Header.Get("Retry-After"))
			}
		}()
	}
	volley.Wait()
	ra, _ := retryAfter.Load().(string)
	if ra == "" {
		t.Fatal("saturating volley produced no 429 with Retry-After")
	}

	// Replay a burst well past the ~50 rps ceiling and scrape mid-flight.
	var midShed, midExpired atomic.Uint64
	spec := ReplaySpec{
		Duration: 2 * time.Second,
		BaseRPS:  100, PeakRPS: 500,
		Workers: 64, TimeoutMs: 150,
	}
	if testing.Short() {
		spec.Duration = time.Second
	}
	out, err := runReplay(context.Background(), replayConfig{
		BaseURL: ts.URL, Model: "sim", Features: row, Spec: spec,
		OnScrape: func(s *metrics.Scrape) {
			midShed.Store(uint64(s.Sum("mobiledl_requests_shed_total")))
			midExpired.Store(uint64(s.Sum("mobiledl_requests_expired_total")))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The contract: only 200/429/504 under load (0 = client transport
	// error, tolerated but never the majority; no 5xx other than 504).
	for status, n := range out.Statuses {
		switch status {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusGatewayTimeout, 0:
		default:
			t.Errorf("unexpected status %d (%d times) under overload", status, n)
		}
	}
	if out.Statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("burst produced no 429s: %v", out.Statuses)
	}
	if out.Statuses[http.StatusGatewayTimeout] == 0 {
		t.Fatalf("burst produced no 504s: %v", out.Statuses)
	}
	if midShed.Load() == 0 {
		t.Fatal("mid-replay scrape saw no shed requests while the burst was live")
	}
	if out.ShedRate <= 0 {
		t.Fatalf("post-replay shed rate %.4f, want > 0", out.ShedRate)
	}
	if out.ErrorRate <= 0 {
		t.Fatalf("post-replay error rate %.4f, want > 0 (expired deadlines)", out.ErrorRate)
	}

	// Drain, then close: a drained server still answers, a closed one
	// sheds with 503.
	srv.StartDrain()
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", hz.StatusCode)
	}
	srv.Close()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict after close = %d, want 503", resp.StatusCode)
	}
}

// TestDiurnalRateCurve pins the traffic shape: base at the edges, peak at
// midday, symmetric.
func TestDiurnalRateCurve(t *testing.T) {
	spec := &ReplaySpec{BaseRPS: 10, PeakRPS: 110}
	if got := diurnalRate(spec, 0); got != 10 {
		t.Fatalf("rate(0) = %v, want base 10", got)
	}
	if got := diurnalRate(spec, 0.5); got != 110 {
		t.Fatalf("rate(0.5) = %v, want peak 110", got)
	}
	if a, b := diurnalRate(spec, 0.25), diurnalRate(spec, 0.75); math.Abs(a-b) > 1e-9 {
		t.Fatalf("curve asymmetric: %v vs %v", a, b)
	}
}
