// Package trace is a zero-dependency request tracer for the serving and
// federated-training pipelines: W3C traceparent propagation at the HTTP
// boundary, a lock-free per-trace span builder, and a bounded in-process
// store with tail-based retention (error traces and the slowest N are always
// kept; the rest ride a recent ring until evicted).
//
// Design constraints, in priority order:
//
//  1. Disabled must be near-free. A nil *Tracer and the zero Span are valid
//     receivers whose every method is a no-op, so instrumented code never
//     branches on "is tracing on" — it just calls through.
//  2. Sampled traces must be cheap. Span slabs are pooled across traces and
//     span creation is a single atomic increment into the slab — no locks,
//     no per-span allocation.
//  3. Shared work must not race. Work executed once for many traces (a
//     coalesced tensor batch) is recorded into a BatchLog by the single
//     executing goroutine and materialized into each participant trace by
//     that trace's own submitter after the response arrives, so no goroutine
//     ever writes into a trace it does not own at that moment.
//
// Correctness contract: every span of a trace must End (with a
// happens-before edge) before the trace's root span Ends. Ending the root
// snapshots the trace into the retention store and recycles the slab; a
// Child started on a finished trace is safely dropped (returns the zero
// Span), but a concurrent Child racing the root End is the caller's bug.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is the (invalid) all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is the 8-byte W3C parent/span identifier.
type SpanID [8]byte

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is the (invalid) all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// maxAttrs bounds the attributes one span can carry; extras are dropped.
const maxAttrs = 6

// Attr is one span attribute: a string or a number under a key.
type Attr struct {
	Key   string
	str   string
	num   float64
	isNum bool
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, str: v} }

// Num builds a numeric attribute.
func Num(k string, v float64) Attr { return Attr{Key: k, num: v, isNum: true} }

// Value returns the attribute's value as string or float64.
func (a Attr) Value() any {
	if a.isNum {
		return a.num
	}
	return a.str
}

// span is one slab entry. It is written only by the goroutine that created
// it (or, for the materialized BatchLog spans, by the trace's submitter) and
// read only after the trace finishes.
type span struct {
	name   string
	parent int32
	start  int64 // UnixNano
	end    int64 // UnixNano; 0 = not yet ended
	nattr  int32
	err    string
	attrs  [maxAttrs]Attr
}

// active is one in-flight trace: a fixed-capacity span slab plus the atomic
// cursor that makes concurrent span creation lock-free. Slabs are pooled;
// finish snapshots the spans into an immutable TraceData and recycles.
type active struct {
	tracer   *Tracer
	id       TraceID
	remote   SpanID // upstream parent from traceparent (zero if locally rooted)
	rootID   SpanID
	next     atomic.Int32
	errs     atomic.Int32
	finished atomic.Bool
	spans    []span
}

// Span is a handle onto one slab entry. The zero Span is a valid no-op:
// every method returns immediately, which is what keeps the disabled and
// sampled-out paths free of tracing branches.
type Span struct {
	tr  *active
	idx int32
}

// Active reports whether the span records anywhere (false for the zero Span).
func (s Span) Active() bool { return s.tr != nil }

// TraceID returns the owning trace's hex id ("" for the zero Span).
func (s Span) TraceID() string {
	if s.tr == nil {
		return ""
	}
	return s.tr.id.String()
}

// Traceparent renders the W3C traceparent header value that names this
// trace (with the trace's root span as parent-id and the sampled flag set).
func (s Span) Traceparent() string {
	if s.tr == nil {
		return ""
	}
	return FormatTraceparent(s.tr.id, s.tr.rootID, true)
}

// Child starts a live child span. Concurrent Child calls on one trace are
// safe and lock-free; a Child on a finished trace is dropped.
func (s Span) Child(name string, attrs ...Attr) Span {
	return s.childAt(name, time.Now().UnixNano(), 0, "", attrs)
}

// ChildAt records an already-measured child span from explicit timestamps —
// the seam through which work recorded elsewhere (BatchLog entries, worker
// timings carried over a channel) lands in a trace without the recording
// goroutine ever touching the slab.
func (s Span) ChildAt(name string, start time.Time, d time.Duration, attrs ...Attr) Span {
	st := start.UnixNano()
	if d < 0 {
		d = 0
	}
	return s.childAt(name, st, st+int64(d), "", attrs)
}

func (s Span) childAt(name string, start, end int64, errMsg string, attrs []Attr) Span {
	tr := s.tr
	if tr == nil || tr.finished.Load() {
		return Span{}
	}
	idx := tr.next.Add(1) - 1
	if int(idx) >= len(tr.spans) {
		// Slab full: the span is dropped (counted at snapshot time from the
		// cursor overshoot) rather than grown — growth would need a lock.
		return Span{}
	}
	sp := &tr.spans[idx]
	sp.name = name
	sp.parent = s.idx
	sp.start = start
	sp.end = end
	sp.err = errMsg
	sp.nattr = int32(copy(sp.attrs[:], attrs))
	if errMsg != "" {
		tr.errs.Add(1)
	}
	return Span{tr: tr, idx: idx}
}

// Annotate appends attributes to the span (dropped past the per-span cap).
func (s Span) Annotate(attrs ...Attr) {
	if s.tr == nil {
		return
	}
	appendAttrs(&s.tr.spans[s.idx], attrs)
}

func appendAttrs(sp *span, attrs []Attr) {
	for _, a := range attrs {
		if sp.nattr >= maxAttrs {
			return
		}
		sp.attrs[sp.nattr] = a
		sp.nattr++
	}
}

// End closes the span, optionally appending final attributes. Ending the
// root span finishes the whole trace: it is snapshotted into the retention
// store and the slab returns to the pool.
func (s Span) End(attrs ...Attr) {
	if s.tr == nil {
		return
	}
	sp := &s.tr.spans[s.idx]
	if sp.end == 0 {
		sp.end = time.Now().UnixNano()
	}
	appendAttrs(sp, attrs)
	if s.idx == 0 {
		s.tr.tracer.finish(s.tr)
	}
}

// EndErr is End recording a failure; err may be nil (then it is plain End).
// An errored span marks the whole trace as an error trace, which the store
// always retains.
func (s Span) EndErr(err error, attrs ...Attr) {
	if s.tr != nil && err != nil {
		sp := &s.tr.spans[s.idx]
		if sp.err == "" {
			sp.err = err.Error()
			s.tr.errs.Add(1)
		}
	}
	s.End(attrs...)
}

// AttachLog materializes a BatchLog's records as descendants of s,
// preserving the log's own parent/child structure. Safe to call with a nil
// log. This is how per-batch backend spans (recorded once by the executing
// worker) land in every participating request's trace: each submitter
// attaches the shared, by-then read-only log to its own span.
func (s Span) AttachLog(l *BatchLog) {
	if s.tr == nil || l == nil || len(l.recs) == 0 {
		return
	}
	made := make([]Span, len(l.recs))
	for i := range l.recs {
		rec := &l.recs[i]
		parent := s
		if rec.Parent >= 0 && rec.Parent < i {
			parent = made[rec.Parent]
		}
		st := rec.Start.UnixNano()
		made[i] = parent.childAt(rec.Name, st, st+int64(rec.Dur), rec.Err, rec.Attrs)
	}
}

// Config tunes a Tracer. Zero values take the documented defaults.
type Config struct {
	// Sample is the head-sampling probability consulted by Sample(); 0 or
	// less traces only requests that join a sampled remote trace.
	Sample float64
	// maxSpans caps one trace's span slab (default 256; only tests set it);
	// spans past the cap are dropped and counted in TraceData.DroppedSpans.
	maxSpans int
}

// Retention sizes of a tracer's store: the keep-latest ring, the always-keep
// set of slowest traces, and the always-keep ring of error traces.
const (
	keepRecent = 256
	keepSlow   = 32
	keepErrors = 64
)

func (c *Config) fill() {
	if c.maxSpans <= 0 {
		c.maxSpans = 256
	}
}

// Stats is a Tracer's lifetime counters (for /metrics export).
type Stats struct {
	// Started counts traces begun; Finished counts traces whose root span
	// ended and that entered the retention store.
	Started  uint64
	Finished uint64
}

// Tracer builds traces and retains finished ones. All methods are safe for
// concurrent use, and safe on a nil receiver (everything no-ops), which is
// the "tracing disabled" representation.
type Tracer struct {
	cfg      Config
	pool     sync.Pool
	store    *store
	started  atomic.Uint64
	finished atomic.Uint64
}

// New builds a tracer with the given sampling policy and span cap.
func New(cfg Config) *Tracer {
	cfg.fill()
	t := &Tracer{cfg: cfg, store: newStore(keepRecent, keepSlow, keepErrors)}
	t.pool.New = func() any {
		return &active{tracer: t, spans: make([]span, cfg.maxSpans)}
	}
	return t
}

// Sample draws the head-sampling decision: true with probability
// Config.Sample. Nil tracers never sample.
func (t *Tracer) Sample() bool {
	if t == nil || t.cfg.Sample <= 0 {
		return false
	}
	return t.cfg.Sample >= 1 || rand.Float64() < t.cfg.Sample
}

// Start begins a locally-rooted trace with a fresh random id and returns its
// root span. Nil tracers return the zero Span.
func (t *Tracer) Start(name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], rand.Uint64())
	binary.BigEndian.PutUint64(id[8:], rand.Uint64())
	return t.start(name, id, SpanID{}, attrs)
}

// StartRemote begins a trace continuing a remote one (id and parent from an
// incoming traceparent header), so the caller's distributed trace and the
// in-process span tree share an identity.
func (t *Tracer) StartRemote(name string, id TraceID, parent SpanID, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	if id.IsZero() {
		return t.Start(name, attrs...)
	}
	return t.start(name, id, parent, attrs)
}

func (t *Tracer) start(name string, id TraceID, parent SpanID, attrs []Attr) Span {
	tr := t.pool.Get().(*active)
	tr.id = id
	tr.remote = parent
	binary.BigEndian.PutUint64(tr.rootID[:], rand.Uint64())
	tr.next.Store(0)
	tr.errs.Store(0)
	tr.finished.Store(false)
	t.started.Add(1)
	// The root is its own slab entry at idx 0 with parent -1.
	return Span{tr: tr, idx: -1}.childAt(name, time.Now().UnixNano(), 0, "", attrs)
}

// finish snapshots a trace into the store and recycles its slab. Guarded by
// a CAS so a double root-End is harmless.
func (t *Tracer) finish(tr *active) {
	if !tr.finished.CompareAndSwap(false, true) {
		return
	}
	t.finished.Add(1)
	t.store.offer(tr.snapshot())
	t.pool.Put(tr)
}

// Get returns a retained trace by hex id, or nil.
func (t *Tracer) Get(id string) *TraceData {
	if t == nil {
		return nil
	}
	return t.store.get(id)
}

// Recent lists retained traces, newest first (recent ring plus the
// always-kept error and slowest sets, deduplicated).
func (t *Tracer) Recent() []TraceSummary {
	if t == nil {
		return nil
	}
	return t.store.list()
}

// Stats snapshots the tracer's lifetime counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{Started: t.started.Load(), Finished: t.finished.Load()}
}

// snapshot freezes the slab into an immutable TraceData.
func (tr *active) snapshot() *TraceData {
	n := int(tr.next.Load())
	dropped := 0
	if n > len(tr.spans) {
		dropped = n - len(tr.spans)
		n = len(tr.spans)
	}
	root := &tr.spans[0]
	td := &TraceData{
		TraceID:      tr.id.String(),
		Name:         root.name,
		Start:        time.Unix(0, root.start),
		DurationMs:   float64(root.end-root.start) / 1e6,
		Error:        tr.errs.Load() > 0,
		DroppedSpans: dropped,
		Spans:        make([]SpanData, n),
	}
	if !tr.remote.IsZero() {
		td.RemoteParent = tr.remote.String()
	}
	for i := 0; i < n; i++ {
		sp := &tr.spans[i]
		end := sp.end
		if end == 0 {
			// A span nobody ended (contract violation or abandoned request):
			// clamp to the root's end so durations stay sane.
			end = root.end
		}
		sd := SpanData{
			ID:         i,
			Parent:     int(sp.parent),
			Name:       sp.name,
			OffsetMs:   float64(sp.start-root.start) / 1e6,
			DurationMs: float64(end-sp.start) / 1e6,
			Error:      sp.err,
		}
		if sd.DurationMs < 0 {
			sd.DurationMs = 0
		}
		if sp.nattr > 0 {
			sd.Attrs = make(map[string]any, sp.nattr)
			for a := int32(0); a < sp.nattr; a++ {
				sd.Attrs[sp.attrs[a].Key] = sp.attrs[a].Value()
			}
		}
		td.Spans[i] = sd
	}
	return td
}
