package serve

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"mobiledl/internal/metrics"
	"mobiledl/internal/mobile"
	"mobiledl/internal/tensor"
	"mobiledl/internal/trace"
)

// RuntimeConfig wires one registered model into a serving runtime.
type RuntimeConfig struct {
	// Registry and Model name the backend; the model must already have a
	// loaded version (its input width fixes the batcher's feature dim).
	Registry *Registry
	Model    string
	// Batch tunes the adaptive batcher.
	Batch BatcherConfig
	// Net is the simulated device<->cloud link (zero value: WiFi) and Seed
	// seeds the perturbation RNG for offloaded cascade rows. The device and
	// cloud take NewExecEnv's defaults.
	Net  mobile.Network
	Seed int64
	// Tracer, when set, samples predict calls into traces (nil disables
	// tracing at near-zero cost). Requests arriving with a span already in
	// ctx (the HTTP layer's traceparent path) are traced regardless.
	Tracer *trace.Tracer
	// Logger receives structured serving logs (batch failures); nil means
	// slog.Default().
	Logger *slog.Logger
}

// Runtime is the served form of one model: an adaptive batcher feeding the
// model's Backend, resolving the registry's current (or a pinned) version at
// every batch boundary so hot swaps apply without a restart.
type Runtime struct {
	name    string
	reg     *Registry
	env     *ExecEnv
	batcher *Batcher
	stats   *collector
	tracer  *trace.Tracer
}

// NewRuntime builds and starts a runtime (its worker pool runs until Close).
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if cfg.Registry == nil || cfg.Model == "" {
		return nil, fmt.Errorf("%w: runtime needs a registry and model name", ErrServe)
	}
	loaded, err := cfg.Registry.Get(cfg.Model)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		name:   cfg.Model,
		reg:    cfg.Registry,
		env:    NewExecEnv(mobile.Device{}, mobile.Device{}, cfg.Net, cfg.Seed),
		stats:  newCollector(),
		tracer: cfg.Tracer,
	}
	rt.batcher, err = NewBatcher(loaded.Info.InputDim, cfg.Batch, rt.execute, rt.stats)
	if err != nil {
		return nil, err
	}
	rt.batcher.logger = cfg.Logger
	rt.batcher.model = cfg.Model
	return rt, nil
}

// execute implements ExecFunc: it resolves the batch's model version (0 is
// the current one, so hot swaps take effect at the next batch boundary; a
// pin must still be retained by the registry), runs the version's Backend
// under the runtime's ExecEnv, and stamps the version onto the results.
func (rt *Runtime) execute(ctx context.Context, batch *tensor.Matrix, opts RequestOptions) ([]Result, error) {
	loaded, err := rt.reg.GetVersion(rt.name, opts.Version)
	if err != nil {
		return nil, err
	}
	// Traced batches carry a BatchLog in ctx; the exec record wraps the
	// backend call and parents whatever child records the backend emits.
	bl := trace.LogFrom(ctx)
	sp := bl.Begin("exec")
	br, err := loaded.Backend.RunBatch(ctx, rt.env, batch, opts)
	bl.EndErr(sp, err,
		trace.Num("model_version", float64(loaded.Version)),
		trace.Num("rows", float64(batch.Rows())))
	if err != nil {
		return nil, err
	}
	for i := range br.Results {
		br.Results[i].ModelVersion = loaded.Version
	}
	return br.Results, nil
}

// Name returns the served model's registry name.
func (rt *Runtime) Name() string { return rt.name }

// Predict serves one feature row with default options.
func (rt *Runtime) Predict(ctx context.Context, features []float64) (Result, error) {
	return rt.PredictWith(ctx, features, RequestOptions{})
}

// PredictWith serves one feature row under explicit request options through
// the batcher and backend, recording end-to-end latency: the measured wall
// time plus the modeled network time.
//
// Tracing: a span already in ctx (the HTTP layer's per-request root) rides
// into the batcher; otherwise the runtime's tracer head-samples and, on a
// hit, this call owns a fresh trace. Either way all span writes happen on
// this goroutine — the queue and batch spans are reconstructed here from the
// result's timing fields after Submit returns, and the backend's BatchLog
// records (written by the single executing worker, published via the result
// channel) are materialized under the batch span.
func (rt *Runtime) PredictWith(ctx context.Context, features []float64, opts RequestOptions) (Result, error) {
	sp := trace.SpanFrom(ctx)
	owned := false
	if !sp.Active() && rt.tracer.Sample() {
		sp = rt.tracer.Start("predict", trace.Str("model", rt.name))
		owned = true
	}
	start := time.Now()
	res, err := rt.batcher.submit(ctx, features, opts, sp)
	if err != nil {
		if owned {
			sp.EndErr(err)
		} else if sp.Active() {
			sp.Annotate(trace.Str("error", err.Error()))
		}
		return Result{}, err
	}
	rt.stats.recordRequest(float64(time.Since(start).Microseconds())/1000 + res.SimNetMs)
	if sp.Active() {
		qd := time.Duration(res.QueueMs * float64(time.Millisecond))
		ed := time.Duration(res.ExecMs * float64(time.Millisecond))
		sp.ChildAt("queue", start, qd)
		batch := sp.ChildAt("batch", start.Add(qd), ed,
			trace.Num("batch_size", float64(res.BatchSize)),
			trace.Num("model_version", float64(res.ModelVersion)))
		batch.AttachLog(res.blog)
		if owned {
			sp.End(trace.Num("sim_net_ms", res.SimNetMs))
		}
	}
	return res, nil
}

// Stats snapshots the runtime's serving counters.
func (rt *Runtime) Stats() Stats {
	return rt.stats.snapshot(rt.batcher.cfg.MaxBatch, rt.batcher.Inflight(), rt.batcher.QueueDepth())
}

// WriteMetrics renders the runtime's counters as Prometheus series labeled
// with the model name — one model's slice of the /metrics payload.
func (rt *Runtime) WriteMetrics(w *metrics.PromWriter) {
	rt.stats.writeProm(w, rt.name, rt.batcher.cfg.MaxBatch, rt.batcher.Inflight(), rt.batcher.QueueDepth())
}

// Close drains in-flight requests and stops the worker pool.
func (rt *Runtime) Close() { rt.batcher.Close() }
