package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobiledl/internal/tensor"
	"mobiledl/internal/trace"
)

// BatcherConfig tunes the request-coalescing and admission policy.
type BatcherConfig struct {
	// MaxBatch flushes a batch as soon as this many requests are pending
	// (default 32).
	MaxBatch int
	// MaxDelay is the latency budget: a partial batch flushes this long
	// after its first request arrived (default 2ms).
	MaxDelay time.Duration
	// Workers sizes the execution pool (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the submit channel. A full queue sheds: Submit fails
	// fast with ErrOverloaded instead of queueing work whose caller will
	// time out before it runs (default max(4*MaxBatch, 1024) — one
	// max-size HTTP fan-out fits without shedding).
	QueueCap int
	// MaxInflight caps admitted-but-unanswered requests (queued plus
	// executing); past it Submit fails fast with ErrOverloaded. Zero means
	// DefaultMaxInflight; negative disables the cap.
	MaxInflight int
}

// DefaultMaxInflight is the per-model admission cap applied when
// BatcherConfig.MaxInflight is zero.
const DefaultMaxInflight = 8192

func (c *BatcherConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
		if c.QueueCap < 1024 {
			c.QueueCap = 1024
		}
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
}

// ExecFunc runs one coalesced tensor batch under uniform request options and
// returns one Result per row. The batch matrix is pooled: it is only valid
// for the duration of the call and must not be retained (or returned) by the
// function. The context is cancelled when the batcher closes or when every
// submitter in the batch has abandoned its request — a backend that honors
// it stops computing answers nobody will read.
type ExecFunc func(ctx context.Context, batch *tensor.Matrix, opts RequestOptions) ([]Result, error)

type request struct {
	// ctx is the submitter's context: consulted at flush and exec time so a
	// request whose caller already gave up is answered with its context
	// error instead of occupying a batch slot.
	ctx      context.Context
	features []float64
	opts     RequestOptions
	enqueued time.Time
	resp     chan response
	// span is the submitter's trace span (the zero Span when the request is
	// untraced). The batcher never writes spans itself — it only checks
	// Active() to decide whether the batch needs a trace.BatchLog; the
	// submitter materializes all span structure after the response arrives.
	span trace.Span
}

type response struct {
	res Result
	err error
}

// Batcher coalesces single-row inference requests into tensor batches: a
// collector goroutine accumulates requests and flushes on max-batch-size or
// on the latency-budget timer, whichever fires first; flushed batches feed a
// worker pool that calls the ExecFunc. Requests with different
// execution-relevant options (version pin, no_perturb, top_k) are split into
// separate exec calls at flush time, so one ExecFunc invocation always sees
// uniform options. Admission is bounded (QueueCap, MaxInflight) and
// deadline-aware: rows whose submitter context is already done are pruned
// before they cost a backend execution. One Batcher serves one model
// runtime.
type Batcher struct {
	cfg  BatcherConfig
	dim  int
	exec ExecFunc

	in      chan *request
	batches chan []*request

	// ctx is the execution context every per-batch context derives from;
	// cancel fires in Close so backends that honor cancellation (e.g. ones
	// calling external processes) cannot hang shutdown. The shipped
	// backends ignore it, so queued requests still drain to completion on
	// Close.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.RWMutex // guards closed vs in-flight Submit sends
	closed bool
	wg     sync.WaitGroup // collector + workers

	// inflight counts admitted-but-unanswered requests, the unit the
	// MaxInflight admission cap meters.
	inflight atomic.Int64

	stats *collector

	// logger and model feed the batch-failure log line (set by the owning
	// Runtime; logger defaults to slog.Default()). lastErrLog rate-limits it
	// to one line per errLogInterval so a failing backend under load cannot
	// flood the log — the full failure count is always in Stats.Errors.
	logger     *slog.Logger
	model      string
	lastErrLog atomic.Int64
}

// errLogInterval is the minimum spacing between batch-failure log lines.
const errLogInterval = time.Second

// NewBatcher starts the collector and worker pool. dim is the required
// feature width; exec runs each flushed batch. stats may be nil.
func NewBatcher(dim int, cfg BatcherConfig, exec ExecFunc, stats *collector) (*Batcher, error) {
	if dim <= 0 || exec == nil {
		return nil, fmt.Errorf("%w: batcher needs a positive dim and an exec func", ErrServe)
	}
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	b := &Batcher{
		cfg:     cfg,
		dim:     dim,
		exec:    exec,
		in:      make(chan *request, cfg.QueueCap),
		batches: make(chan []*request, cfg.Workers),
		ctx:     ctx,
		cancel:  cancel,
		stats:   stats,
	}
	b.wg.Add(1 + cfg.Workers)
	go b.collect()
	for i := 0; i < cfg.Workers; i++ {
		go b.worker()
	}
	return b, nil
}

// Inflight reports admitted-but-unanswered requests (queued + executing).
func (b *Batcher) Inflight() int64 { return b.inflight.Load() }

// QueueDepth reports requests sitting in the admission queue.
func (b *Batcher) QueueDepth() int { return len(b.in) }

// Submit enqueues one feature row with its request options and blocks until
// the result is ready, ctx is done, or the batcher closes. Admission fails
// fast: a full queue or inflight cap returns ErrOverloaded immediately so
// overloaded servers shed instead of stacking up doomed work. ctx rides
// with the request — if it expires while the row is still queued, the row
// is answered with ctx.Err() and never reaches the backend.
func (b *Batcher) Submit(ctx context.Context, features []float64, opts RequestOptions) (Result, error) {
	return b.submit(ctx, features, opts, trace.SpanFrom(ctx))
}

// submit is Submit with the request's trace span already extracted — the
// Runtime path resolves the span once and shares it between the batcher and
// its own post-response span materialization.
func (b *Batcher) submit(ctx context.Context, features []float64, opts RequestOptions, span trace.Span) (Result, error) {
	if len(features) != b.dim {
		return Result{}, fmt.Errorf("%w: got %d features, model expects %d", ErrRequest, len(features), b.dim)
	}
	if err := validateOptions(opts); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	r := &request{
		ctx:      ctx,
		features: features,
		opts:     opts,
		enqueued: time.Now(),
		resp:     make(chan response, 1), // buffered: a worker send never blocks on an abandoned request
		span:     span,
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return Result{}, ErrClosed
	}
	// Add-then-check keeps the cap airtight under concurrent Submits: a
	// load-then-add pair would let a whole burst pass the same reading.
	if max := b.cfg.MaxInflight; b.inflight.Add(1) > int64(max) && max > 0 {
		b.inflight.Add(-1)
		b.mu.RUnlock()
		return Result{}, b.shed()
	}
	select {
	case b.in <- r:
		b.mu.RUnlock()
	default:
		// Queue full: the collector is saturated. Shedding here (rather
		// than blocking) is what keeps the queue from filling with
		// requests staler than their callers' patience.
		b.inflight.Add(-1)
		b.mu.RUnlock()
		return Result{}, b.shed()
	}
	select {
	case resp := <-r.resp:
		return resp.res, resp.err
	case <-ctx.Done():
		// The request stays admitted; the collector or a worker will
		// observe the dead context, answer into the buffered channel, and
		// release the inflight slot.
		return Result{}, ctx.Err()
	}
}

func (b *Batcher) shed() error {
	if b.stats != nil {
		b.stats.shed.Add(1)
	}
	return ErrOverloaded
}

// reply answers one request and releases its admission slot.
func (b *Batcher) reply(r *request, resp response) {
	r.resp <- resp
	b.inflight.Add(-1)
}

// Close stops intake, cancels the execution context, drains pending
// requests, and waits for workers. Requests still queued are served by the
// shipped (cancellation-ignoring) backends; a backend that honors the
// context may instead abort them with its cancellation error, which is what
// keeps a hung external backend from wedging shutdown. Submit after Close
// returns ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.in)
	b.mu.Unlock()
	b.cancel()
	b.wg.Wait()
}

// collect is the single accumulator loop: it owns the pending slice and the
// latency-budget timer, so flush decisions need no locking.
func (b *Batcher) collect() {
	defer b.wg.Done()
	var pending []*request
	var timer *time.Timer
	var deadline <-chan time.Time

	flush := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			deadline = nil
		}
		if len(pending) == 0 {
			return
		}
		// First deadline pass: rows whose caller already gave up are
		// answered here and never occupy a batch slot.
		live := pending[:0]
		for _, r := range pending {
			if err := r.ctx.Err(); err != nil {
				if b.stats != nil {
					b.stats.expired.Add(1)
				}
				b.reply(r, response{err: err})
				continue
			}
			live = append(live, r)
		}
		pending = nil
		if len(live) == 0 {
			return
		}
		b.batches <- live
	}

	for {
		select {
		case r, ok := <-b.in:
			if !ok {
				flush()
				close(b.batches)
				return
			}
			pending = append(pending, r)
			if len(pending) == 1 {
				timer = time.NewTimer(b.cfg.MaxDelay)
				deadline = timer.C
			}
			if len(pending) >= b.cfg.MaxBatch {
				flush()
			}
		case <-deadline:
			timer = nil
			deadline = nil
			flush()
		}
	}
}

func (b *Batcher) worker() {
	defer b.wg.Done()
	for reqs := range b.batches {
		b.runBatch(reqs)
	}
}

// runBatch executes one flushed accumulation. The common case — every row
// carrying default (or identical) options — runs as a single tensor batch
// with no extra work; mixed options partition into per-options sub-batches
// so each ExecFunc call stays uniform.
func (b *Batcher) runBatch(reqs []*request) {
	uniform := true
	for _, r := range reqs[1:] {
		if r.opts != reqs[0].opts {
			uniform = false
			break
		}
	}
	if uniform {
		b.execGroup(reqs)
		return
	}
	// Partition preserving arrival order within each group. Options structs
	// are comparable, so they key the map directly.
	groups := make(map[RequestOptions][]*request)
	var order []RequestOptions
	for _, r := range reqs {
		if _, ok := groups[r.opts]; !ok {
			order = append(order, r.opts)
		}
		groups[r.opts] = append(groups[r.opts], r)
	}
	for _, opts := range order {
		b.execGroup(groups[opts])
	}
}

// groupContext derives the context one exec call runs under. When every row
// in the group is cancellable, the group context is cancelled as soon as the
// last submitter abandons its request, so a context-honoring backend stops
// mid-batch instead of finishing work nobody will read. Rows submitted with
// a non-cancellable context (the benchmark/background case) short-circuit to
// the batcher context with zero goroutine overhead. The returned release
// func must be called after exec returns.
func (b *Batcher) groupContext(reqs []*request) (context.Context, func()) {
	for _, r := range reqs {
		if r.ctx.Done() == nil {
			return b.ctx, func() {}
		}
	}
	ctx, cancel := context.WithCancel(b.ctx)
	live := new(atomic.Int64)
	live.Store(int64(len(reqs)))
	// AfterFunc registers a per-row callback without spawning a goroutine,
	// so the per-batch cost on the deadline-carrying hot path is a few
	// list insertions, not len(reqs) goroutine create/destroy pairs.
	stops := make([]func() bool, len(reqs))
	for i, r := range reqs {
		stops[i] = context.AfterFunc(r.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// execGroup assembles one uniform-options group into a pooled matrix, runs
// the ExecFunc, and fans results (or the error) back out to the submitters.
// Rows whose context died while the group queued are pruned first — the
// second deadline pass — so the backend only ever computes rows somebody is
// still waiting for; a group that is entirely dead skips the backend
// altogether.
func (b *Batcher) execGroup(reqs []*request) {
	live := reqs[:0]
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			if b.stats != nil {
				b.stats.expired.Add(1)
			}
			b.reply(r, response{err: err})
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	reqs = live

	start := time.Now()
	ctx, release := b.groupContext(reqs)
	// Traced batches get a BatchLog for the exec func and backend to record
	// child spans into; the common untraced batch pays one Active() check
	// per row and allocates nothing.
	var blog *trace.BatchLog
	for _, r := range reqs {
		if r.span.Active() {
			blog = trace.NewBatchLog()
			ctx = trace.WithLog(ctx, blog)
			break
		}
	}
	// Assemble into a pooled matrix: each worker recycles the previous
	// batch's buffer instead of allocating one per flush.
	batch := tensor.Get(len(reqs), b.dim)
	for i, r := range reqs {
		copy(batch.Row(i), r.features)
	}
	results, err := b.exec(ctx, batch, reqs[0].opts)
	release()
	tensor.Put(batch)
	if err == nil && len(results) != len(reqs) {
		err = fmt.Errorf("%w: exec returned %d results for %d rows", ErrServe, len(results), len(reqs))
	}
	execMs := float64(time.Since(start).Microseconds()) / 1000
	if b.stats != nil {
		b.stats.recordBatch(len(reqs))
	}
	// A cancellation error means the run was aborted (all rows abandoned, or
	// the batcher closing), not that the backend misbehaved; any other error
	// is a backend fault and counts as one for every row — even rows whose
	// own deadline happened to pass during the (executed) batch, so a
	// failing backend can't hide behind tight client budgets.
	aborted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !aborted {
		b.logBatchError(err, reqs)
	}
	for i, r := range reqs {
		if err != nil {
			if ctxErr := r.ctx.Err(); ctxErr != nil && aborted {
				if b.stats != nil {
					b.stats.expired.Add(1)
				}
				b.reply(r, response{err: ctxErr})
				continue
			}
			if b.stats != nil {
				b.stats.errors.Add(1)
			}
			b.reply(r, response{err: err})
			continue
		}
		res := results[i]
		res.BatchSize = len(reqs)
		res.QueueMs = float64(start.Sub(r.enqueued).Microseconds()) / 1000
		res.ExecMs = execMs
		res.blog = blog
		if b.stats != nil {
			b.stats.recordResult(res)
		}
		b.reply(r, response{res: res})
	}
}

// logBatchError emits one structured log line for a failed batch execution
// — the visibility counterpart of the Stats.Errors counter, which records
// every failure but says nothing about which model, version, or traces were
// hit. Rate-limited to one line per errLogInterval via a CAS on the last
// log time, so the hot path never takes a lock and a failing backend under
// load cannot flood the log.
func (b *Batcher) logBatchError(err error, reqs []*request) {
	now := time.Now().UnixNano()
	last := b.lastErrLog.Load()
	if now-last < int64(errLogInterval) || !b.lastErrLog.CompareAndSwap(last, now) {
		return
	}
	logger := b.logger
	if logger == nil {
		logger = slog.Default()
	}
	// Collect the trace ids of the traced rows so the log line correlates
	// with /v1/trace/{id}; cap the list to keep the line bounded.
	var traceIDs []string
	for _, r := range reqs {
		if !r.span.Active() {
			continue
		}
		traceIDs = append(traceIDs, r.span.TraceID())
		if len(traceIDs) >= 8 {
			break
		}
	}
	logger.Error("batch execution failed",
		"model", b.model,
		"version", reqs[0].opts.Version,
		"batch_size", len(reqs),
		"trace_ids", traceIDs,
		"err", err)
}
