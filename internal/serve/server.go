package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobiledl/internal/metrics"
	"mobiledl/internal/trace"
	"mobiledl/internal/version"
	"mobiledl/internal/wire"
)

// ServerConfig tunes HTTP-level serving policy: the default per-request
// compute budget, tracing, logging, and cluster health reporting.
type ServerConfig struct {
	// DefaultTimeout is the deadline budget applied to every /v1/predict
	// request that does not carry its own timeout_ms (0 = no server-side
	// deadline). The derived context rides each row through the batcher, so
	// a request that outlives its budget is answered 504 and pruned before
	// it costs a backend execution.
	DefaultTimeout time.Duration
	// Tracer, when set, traces predict requests: inbound W3C traceparent
	// headers with the sampled flag always trace (joined to the caller's
	// trace id), other requests are head-sampled at the tracer's rate.
	// Finished traces are queryable at /v1/trace/recent and /v1/trace/{id}.
	// Nil disables tracing at near-zero cost.
	Tracer *trace.Tracer
	// Logger receives structured request logs; nil means slog.Default().
	Logger *slog.Logger
	// ClusterStatus, when set, reports this node's cluster membership state
	// ("solo", "joining", "ok", or "partitioned") on /healthz — the seam the
	// cluster layer exports health through without this package importing
	// it. Nil omits the field (single-process deployment).
	ClusterStatus func() string
}

// maxTimeout caps a client-requested timeout_ms so a client cannot pin a
// batch slot indefinitely.
const maxTimeout = 30 * time.Second

// requestBudget derives one request's deadline budget: the client's
// timeout_ms if sent, capped at maxTimeout, else the server's default. The
// cap is applied in milliseconds, before the conversion to a Duration that
// would overflow for huge asks. Only the client's ask is capped; the
// operator-configured default is taken at face value.
func requestBudget(def time.Duration, timeoutMs int) time.Duration {
	if timeoutMs <= 0 {
		return def
	}
	if timeoutMs >= int(maxTimeout/time.Millisecond) {
		return maxTimeout
	}
	return time.Duration(timeoutMs) * time.Millisecond
}

// Server exposes one or more runtimes over HTTP/JSON:
//
//	POST /v1/predict  {"model":"m","features":[[...],...],"options":{...}}
//	GET  /v1/stats                                          -> per-model Stats
//	GET  /v1/models                                         -> registry listing
//	GET  /metrics                                           -> Prometheus text
//	GET  /healthz                                           -> readiness + store health
//	GET  /v1/backup                                         -> online store snapshot
//
// Rows of one predict call are submitted to the batcher individually, so
// concurrent clients coalesce into shared tensor batches. The optional
// "options" object carries per-request knobs: "top_k" (class-probability
// breakdown), "version" (registry version pin), "no_perturb" (skip the
// cascade privacy perturbation); the optional "timeout_ms" field sets the
// request's deadline budget. Overload is shed with 429 + Retry-After, an
// exhausted deadline is 504, and a closed runtime is 503.
type Server struct {
	registry *Registry
	cfg      ServerConfig
	logger   *slog.Logger

	// draining flips once at shutdown: /healthz turns 503 so load balancers
	// stop routing here while in-flight batches finish.
	draining atomic.Bool

	mu       sync.RWMutex
	runtimes map[string]*Runtime
	sources  []func(*metrics.PromWriter)
}

// NewServer wraps a registry with default policy; runtimes are attached per
// served model.
func NewServer(reg *Registry) *Server {
	return NewServerWith(reg, ServerConfig{})
}

// NewServerWith wraps a registry under an explicit serving policy.
func NewServerWith(reg *Registry, cfg ServerConfig) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Server{registry: reg, cfg: cfg, logger: logger, runtimes: make(map[string]*Runtime)}
}

// AddMetricsSource registers an extra producer for the /metrics payload —
// the seam subsystems outside the serving package (e.g. the fedserve
// training coordinator) export through without this package importing them.
func (s *Server) AddMetricsSource(src func(*metrics.PromWriter)) {
	s.mu.Lock()
	s.sources = append(s.sources, src)
	s.mu.Unlock()
}

// Add attaches a runtime under its model name.
func (s *Server) Add(rt *Runtime) {
	s.mu.Lock()
	s.runtimes[rt.Name()] = rt
	s.mu.Unlock()
}

// StartDrain flips the server into draining: /healthz answers 503 so load
// balancers and orchestrators stop routing new traffic here, while requests
// already in flight keep being served. Call it on SIGTERM, wait out the
// traffic tail, then Close.
func (s *Server) StartDrain() {
	if !s.draining.Swap(true) {
		s.logger.Info("server draining", "reason", "StartDrain")
	}
}

// Close marks the server draining, closes every attached runtime (draining
// their in-flight batches), then releases the registry's retained backends
// via Registry.Close — the shutdown path for resource-holding Backend
// implementations.
func (s *Server) Close() {
	s.StartDrain()
	s.mu.RLock()
	for _, rt := range s.runtimes {
		rt.Close()
	}
	s.mu.RUnlock()
	_ = s.registry.Close()
}

func (s *Server) runtime(name string) (*Runtime, bool) {
	s.mu.RLock()
	rt, ok := s.runtimes[name]
	s.mu.RUnlock()
	return rt, ok
}

// Handler returns the HTTP mux for the serving API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/v1/backup", s.handleBackup)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleHealthz is the readiness probe: 200 {"status":"ok"} while serving,
// 503 {"status":"draining"} once StartDrain/Close has run, so orchestrators
// pull the instance out of rotation before in-flight work is cut off. The
// "store" field distinguishes degraded persistence ("degraded": publishes
// are RAM-only until the disk recovers) from healthy serving — a degraded
// store alone never turns readiness off.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]string{"status": "ok", "store": s.registry.StoreStatus()}
	if s.cfg.ClusterStatus != nil {
		body["cluster"] = s.cfg.ClusterStatus()
	}
	if s.draining.Load() {
		body["status"] = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(body)
		return
	}
	writeJSON(w, body)
}

// handleBackup streams an online snapshot of the model store — a valid
// snapshot file a fresh data dir can boot from (see the README restore
// runbook). 404 when no store is configured. Backups stay available while
// draining: shutdown is exactly when an operator wants one.
func (s *Server) handleBackup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	st := s.registry.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no model store configured (run with -data-dir)"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="mobiledl-snapshot.bin"`)
	n, err := st.Backup(w)
	if err != nil {
		// Headers (and possibly bytes) are gone; log instead of a half 500.
		s.logger.Error("backup stream failed", "bytes", n, "err", err)
	}
}

// PredictRequest and PredictResponse are the /v1/predict bodies; the types
// live with their codec in internal/wire, which the cluster router shares.
type (
	PredictRequest  = wire.Request
	PredictResponse = wire.Response
	ClassProb       = wire.ClassProb // one class's probability in a top-K breakdown
)

// predictScratch is what one /v1/predict exchange allocates that can serve the
// next: the body bytes (read, decoded, then overwritten by the reply), the
// decoded request with its flat feature buffer, and the per-row result slots.
type predictScratch struct {
	buf     []byte
	req     wire.Request
	results []Result
	errs    []error
	rows    []wire.Row
}

var scratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// maxPooledBody keeps one outsized request from pinning megabytes in the
// pool: scratch that grew past it is left to the GC.
const maxPooledBody = 1 << 20

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*predictScratch)
	if s.predict(w, r, sc) && cap(sc.buf) <= maxPooledBody {
		scratchPool.Put(sc)
	}
}

// predict serves one request out of sc and reports whether sc may be reused.
// It may not once a row has failed: Batcher.submit returns on ctx.Done()
// while a worker can still be copying that row's features into its batch, so
// the feature buffer is only known to be free when every row was answered
// through the batcher — anything else is left to the GC.
func (s *Server) predict(w http.ResponseWriter, r *http.Request, sc *predictScratch) (reusable bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return true
	}
	// Decode and encode are timed for the root span only; with no tracer
	// the clock is never read.
	var began time.Time
	if s.cfg.Tracer != nil {
		began = time.Now()
	}
	var err error
	if sc.buf, err = wire.ReadBody(r.Body, r.ContentLength, sc.buf); err == nil {
		err = wire.Decode(sc.buf, &sc.req)
	}
	req := &sc.req
	rt, served := s.runtime(req.Model)
	status := http.StatusBadRequest
	switch {
	case err != nil:
		// Malformed JSON, a body over wire.MaxBodyBytes and more than
		// wire.MaxRows rows alike: client faults, never a 500.
		err = fmt.Errorf("bad request body: %w", err)
	case len(req.Features) == 0:
		err = errors.New("no feature rows")
	case req.TimeoutMs < 0:
		err = fmt.Errorf("negative timeout_ms %d", req.TimeoutMs)
	case !served:
		status, err = http.StatusNotFound, fmt.Errorf("model %q not served", req.Model)
	}
	if err != nil {
		httpError(w, status, err)
		return true
	}

	// Trace the request: an inbound traceparent with the sampled flag joins
	// the caller's trace; otherwise the tracer head-samples. The root span id
	// is echoed back in the response's traceparent header so clients can
	// fetch the span tree from /v1/trace/{id}.
	sp := s.rootSpan(r, req.Model, len(req.Features))
	if sp.Active() {
		w.Header().Set("traceparent", sp.Traceparent())
		sp.Annotate(trace.Num("body_bytes", float64(len(sc.buf))),
			trace.Num("decode_us", float64(time.Since(began).Microseconds())))
	}

	// The deadline context rides every row through the batcher, so an
	// expired request is pruned instead of executed.
	ctx := r.Context()
	if budget := requestBudget(s.cfg.DefaultTimeout, req.TimeoutMs); budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	n := len(req.Features)
	sc.results = append(sc.results[:0], make([]Result, n)...)
	sc.errs = append(sc.errs[:0], make([]error, n)...)
	// Fan the rows out so they coalesce with other clients' requests; the
	// first — of a mobile client's request, the only — runs on this goroutine.
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			predictRow(ctx, sp, rt, sc, i)
		}()
	}
	predictRow(ctx, sp, rt, sc, 0)
	wg.Wait()
	for _, err := range sc.errs {
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrRequest):
				status = http.StatusBadRequest
			case errors.Is(err, ErrOverloaded):
				// The same fixed hint cluster nodes send with their own 429s.
				w.Header().Set("Retry-After", "1")
				status = http.StatusTooManyRequests
			case errors.Is(err, ErrClosed):
				status = http.StatusServiceUnavailable
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				// The request's deadline budget ran out (or the client went
				// away) before the model answered; the row was pruned, not
				// computed.
				status = http.StatusGatewayTimeout
			}
			sp.EndErr(err)
			if status >= http.StatusInternalServerError || status == http.StatusGatewayTimeout {
				s.logger.Error("predict failed",
					"model", req.Model, "rows", len(req.Features),
					"status", status, "trace_id", sp.TraceID(), "err", err)
			}
			httpError(w, status, err)
			return false
		}
	}

	if sp.Active() {
		began = time.Now()
	}
	sc.rows = sc.rows[:0]
	for i := range sc.results {
		res := &sc.results[i]
		sc.rows = append(sc.rows, wire.Row{
			Class:        res.Class,
			Probs:        res.Probs,
			Local:        res.Local,
			Placement:    res.Placement.String(),
			ModelVersion: res.ModelVersion,
			BatchSize:    res.BatchSize,
			QueueMs:      res.QueueMs,
			ExecMs:       res.ExecMs,
			SimNetMs:     res.SimNetMs,
		})
	}
	// The request bytes are spent (Decode kept none of them), so the reply
	// is rendered over them and leaves in one Write.
	sc.buf = wire.AppendResponse(sc.buf[:0], req.Model, sc.rows)
	if sp.Active() {
		sp.End(trace.Num("encode_us", float64(time.Since(began).Microseconds())))
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(sc.buf) // headers are gone; nothing useful left to do
	return true
}

// predictRow answers row i of sc.req into its result slot. Under a trace the
// row gets its own child span (span allocation in the shared slab is atomic;
// every goroutine writes only spans it created) so sub-batch splits stay
// attributable per row.
func predictRow(ctx context.Context, sp trace.Span, rt *Runtime, sc *predictScratch, i int) {
	if sp.Active() {
		sp = sp.Child("row", trace.Num("row", float64(i)))
		ctx = trace.WithSpan(ctx, sp)
	}
	sc.results[i], sc.errs[i] = rt.PredictWith(ctx, sc.req.Features[i], sc.req.Options)
	sp.EndErr(sc.errs[i])
}

// rootSpan decides tracing for one predict request. An inbound sampled
// traceparent always traces (joined to the caller's trace id, so the span
// tree names the remote parent); without one the tracer head-samples.
// Returns the zero Span (inactive, near-free) when the request is not
// traced.
func (s *Server) rootSpan(r *http.Request, model string, rows int) trace.Span {
	t := s.cfg.Tracer
	if t == nil {
		return trace.Span{}
	}
	if id, parent, sampled, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		if !sampled {
			return trace.Span{}
		}
		return t.StartRemote("http.predict", id, parent,
			trace.Str("model", model), trace.Num("rows", float64(rows)))
	}
	if !t.Sample() {
		return trace.Span{}
	}
	return t.Start("http.predict",
		trace.Str("model", model), trace.Num("rows", float64(rows)))
}

// handleTrace serves the in-process trace store:
//
//	GET /v1/trace/recent -> retained trace summaries, newest first
//	GET /v1/trace/{id}   -> one trace's full span tree
//
// Retention is tail-based (errors and the slowest traces are kept
// preferentially), so a trace that was sampled may still age out.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	t := s.cfg.Tracer
	if t == nil {
		httpError(w, http.StatusNotFound, errors.New("tracing disabled (no tracer configured)"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || id == "recent" {
		writeJSON(w, t.Recent())
		return
	}
	td := t.Get(id)
	if td == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("trace %q not retained", id))
		return
	}
	writeJSON(w, td)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	s.mu.RLock()
	out := make(map[string]Stats, len(s.runtimes))
	for name, rt := range s.runtimes {
		out[name] = rt.Stats()
	}
	s.mu.RUnlock()
	writeJSON(w, out)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, s.registry.Snapshot())
}

// handleMetrics renders the Prometheus text exposition: every runtime's
// counters/gauges/histograms plus any registered extra sources (e.g. the
// fedserve training coordinator). Rendering goes through a buffer so a
// mid-render error can still become a clean 500.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	var buf bytes.Buffer
	pw := metrics.NewPromWriter(&buf)
	s.mu.RLock()
	names := make([]string, 0, len(s.runtimes))
	for name := range s.runtimes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.runtimes[name].WriteMetrics(pw)
	}
	sources := append([]func(*metrics.PromWriter){}, s.sources...)
	s.mu.RUnlock()
	for _, src := range sources {
		src(pw)
	}
	pw.Gauge("mobiledl_build_info",
		"Build identity: constant 1, with the stamped version and Go toolchain in labels.", 1,
		metrics.Label{Name: "version", Value: version.Version},
		metrics.Label{Name: "goversion", Value: runtime.Version()})
	if t := s.cfg.Tracer; t != nil {
		ts := t.Stats()
		pw.Counter("mobiledl_traces_started_total", "Traces started (head-sampled or joined via traceparent).", float64(ts.Started))
		pw.Counter("mobiledl_traces_finished_total", "Traces finished and offered to the retention store.", float64(ts.Finished))
	}
	if s.registry.Store() != nil {
		pw.Counter("mobiledl_store_errors_total",
			"Failed model-store appends; the publish stayed in RAM and serving continued.",
			float64(s.registry.StoreErrors()))
		degraded := 0.0
		if s.registry.StoreStatus() == StoreDegraded {
			degraded = 1
		}
		pw.Gauge("mobiledl_store_degraded",
			"1 while the model store's last append failed (publishes are RAM-only), 0 when healthy.",
			degraded)
	}
	if err := pw.Flush(); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = buf.WriteTo(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
