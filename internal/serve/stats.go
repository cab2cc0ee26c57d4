package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"mobiledl/internal/metrics"
)

// statsWindow is the sliding-window size for quantile estimation.
const statsWindow = 4096

// rateWindowSecs is the sliding window (seconds) over which ThroughputRPS
// is computed, so the reported rate tracks current traffic instead of
// decaying toward zero after any idle period the way a lifetime average
// does.
const rateWindowSecs = 30

// rateSlot is one second's event count.
type rateSlot struct {
	sec atomic.Int64
	n   atomic.Uint64
}

// rateWindow is a lock-free ring of per-second counters. Slots are lazily
// reset when their second comes around again; the reset races an increment
// by at most a handful of events, an acceptable error for a throughput
// gauge that never touches a mutex on the hot path.
type rateWindow struct {
	slots [rateWindowSecs]rateSlot
}

func (rw *rateWindow) record(now time.Time) {
	sec := now.Unix()
	s := &rw.slots[int(sec%rateWindowSecs)]
	if old := s.sec.Load(); old != sec {
		if s.sec.CompareAndSwap(old, sec) {
			s.n.Store(0)
		}
	}
	s.n.Add(1)
}

// rate sums the events of the last rateWindowSecs seconds and divides by the
// window actually covered (bounded below by one second so a cold start does
// not report an inflated rate).
func (rw *rateWindow) rate(now time.Time, uptimeSeconds float64) float64 {
	sec := now.Unix()
	var total uint64
	for i := range rw.slots {
		s := &rw.slots[i]
		if age := sec - s.sec.Load(); age >= 0 && age < rateWindowSecs {
			total += s.n.Load()
		}
	}
	span := uptimeSeconds
	if span > rateWindowSecs {
		span = rateWindowSecs
	}
	if span < 1 {
		span = 1
	}
	return float64(total) / span
}

// collector aggregates runtime counters. Counters are atomics and the
// latency recorders lock internally, so the hot path never shares a mutex.
type collector struct {
	start time.Time

	requests   atomic.Uint64
	batches    atomic.Uint64
	batchedReq atomic.Uint64
	rows       atomic.Uint64
	localExits atomic.Uint64
	offloads   atomic.Uint64

	// shed counts requests refused at admission (ErrOverloaded); expired
	// counts admitted requests answered with their own context error
	// instead of a backend execution; errors counts rows that saw an
	// exec/backend failure.
	shed    atomic.Uint64
	expired atomic.Uint64
	errors  atomic.Uint64

	rate rateWindow

	placeMu     sync.Mutex
	byPlacement map[string]uint64

	latency *metrics.LatencyRecorder // end-to-end, recorded by the runtime
	queue   *metrics.LatencyRecorder // time waiting for a batch to form
	exec    *metrics.LatencyRecorder // compute inside the exec func
}

func newCollector() *collector {
	return &collector{
		start:       time.Now(),
		byPlacement: make(map[string]uint64),
		latency:     metrics.NewLatencyRecorder(statsWindow),
		queue:       metrics.NewLatencyRecorder(statsWindow),
		exec:        metrics.NewLatencyRecorder(statsWindow),
	}
}

func (c *collector) recordBatch(size int) {
	c.batches.Add(1)
	c.batchedReq.Add(uint64(size))
}

func (c *collector) recordResult(r Result) {
	c.queue.Record(r.QueueMs)
	c.exec.Record(r.ExecMs)
	c.rows.Add(1)
	// Local and offload are independent facts: a row answered by the early
	// exit never pays traffic, but a row can also stay on-device without an
	// exit (plain local placement, offline cascade fallback).
	if r.Local {
		c.localExits.Add(1)
	}
	if r.SimNetMs > 0 {
		c.offloads.Add(1)
	}
	c.placeMu.Lock()
	c.byPlacement[r.Placement.String()]++
	c.placeMu.Unlock()
}

func (c *collector) recordRequest(totalMs float64) {
	c.requests.Add(1)
	c.rate.record(time.Now())
	c.latency.Record(totalMs)
}

// Stats is the JSON shape of the /v1/stats endpoint for one runtime.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_s"`
	Requests      uint64  `json:"requests"`
	// ThroughputRPS is requests/sec over the last rateWindowSecs seconds
	// (a sliding window: it reflects current traffic and returns to zero
	// when traffic stops, instead of a lifetime average that decays after
	// any idle period).
	ThroughputRPS float64 `json:"throughput_rps"`

	// Shed counts requests refused at admission (queue/inflight cap full,
	// answered ErrOverloaded / HTTP 429). Expired counts admitted requests
	// whose caller's deadline passed before execution — answered with the
	// context error and never run. Errors counts rows that saw an
	// exec/backend failure.
	Shed    uint64 `json:"shed"`
	Expired uint64 `json:"expired"`
	Errors  uint64 `json:"errors"`
	// Inflight is the current number of admitted-but-unanswered requests;
	// QueueDepth is how many of those sit in the admission queue.
	Inflight   int64 `json:"inflight"`
	QueueDepth int   `json:"queue_depth"`

	// LatencyMs is end-to-end request latency (queue + exec + sim network).
	LatencyMs metrics.LatencySummary `json:"latency_ms"`
	// QueueMs is time spent waiting for a batch to fill or its budget to
	// expire.
	QueueMs metrics.LatencySummary `json:"queue_ms"`
	// ExecMs is compute time per batch.
	ExecMs metrics.LatencySummary `json:"exec_ms"`

	Batches uint64 `json:"batches"`
	// BatchOccupancy is the mean coalesced batch size.
	BatchOccupancy float64 `json:"batch_occupancy"`
	MaxBatch       int     `json:"max_batch"`

	// LocalExits counts rows answered by the on-device early exit;
	// Offloads counts rows that paid simulated device->cloud traffic.
	// Rows on neither count ran fully on-device without an exit (plain
	// local placement, offline cascade fallback).
	LocalExits uint64 `json:"local_exits"`
	Offloads   uint64 `json:"offloads"`
	// LocalExitFraction is local_exits over all served rows.
	LocalExitFraction float64 `json:"local_exit_fraction"`
	// Placements counts answered rows by execution strategy.
	Placements map[string]uint64 `json:"placements"`
}

func (c *collector) snapshot(maxBatch int, inflight int64, queueDepth int) Stats {
	now := time.Now()
	s := Stats{
		UptimeSeconds: now.Sub(c.start).Seconds(),
		Requests:      c.requests.Load(),
		Shed:          c.shed.Load(),
		Expired:       c.expired.Load(),
		Errors:        c.errors.Load(),
		Inflight:      inflight,
		QueueDepth:    queueDepth,
		LatencyMs:     c.latency.Snapshot(),
		QueueMs:       c.queue.Snapshot(),
		ExecMs:        c.exec.Snapshot(),
		Batches:       c.batches.Load(),
		MaxBatch:      maxBatch,
		LocalExits:    c.localExits.Load(),
		Offloads:      c.offloads.Load(),
		Placements:    make(map[string]uint64, 3),
	}
	s.ThroughputRPS = c.rate.rate(now, s.UptimeSeconds)
	if s.Batches > 0 {
		s.BatchOccupancy = float64(c.batchedReq.Load()) / float64(s.Batches)
	}
	if rows := c.rows.Load(); rows > 0 {
		s.LocalExitFraction = float64(s.LocalExits) / float64(rows)
	}
	c.placeMu.Lock()
	for k, v := range c.byPlacement {
		s.Placements[k] = v
	}
	c.placeMu.Unlock()
	return s
}

// writeProm renders the collector as Prometheus series, labeled by model —
// the per-runtime slice of the /metrics payload.
func (c *collector) writeProm(w *metrics.PromWriter, model string, maxBatch int, inflight int64, queueDepth int) {
	s := c.snapshot(maxBatch, inflight, queueDepth)
	ml := metrics.Label{Name: "model", Value: model}
	w.Counter("mobiledl_requests_total", "Requests answered successfully.", float64(s.Requests), ml)
	w.Counter("mobiledl_requests_shed_total", "Requests refused at admission (queue or inflight cap full).", float64(s.Shed), ml)
	w.Counter("mobiledl_requests_expired_total", "Admitted requests whose deadline passed before execution.", float64(s.Expired), ml)
	w.Counter("mobiledl_request_errors_total", "Rows that saw an exec or backend failure.", float64(s.Errors), ml)
	w.Counter("mobiledl_batches_total", "Coalesced batches executed.", float64(s.Batches), ml)
	w.Counter("mobiledl_batch_rows_total", "Rows executed across all batches.", float64(c.batchedReq.Load()), ml)
	w.Counter("mobiledl_local_exits_total", "Rows answered by the on-device early exit.", float64(s.LocalExits), ml)
	w.Counter("mobiledl_offloads_total", "Rows that paid simulated device-to-cloud traffic.", float64(s.Offloads), ml)
	w.Gauge("mobiledl_inflight_requests", "Admitted-but-unanswered requests.", float64(s.Inflight), ml)
	w.Gauge("mobiledl_queue_depth", "Requests waiting in the admission queue.", float64(s.QueueDepth), ml)
	w.Gauge("mobiledl_batch_occupancy_rows", "Mean coalesced batch size.", s.BatchOccupancy, ml)
	w.Gauge("mobiledl_throughput_rps", "Requests/sec over the sliding rate window.", s.ThroughputRPS, ml)
	w.Histogram("mobiledl_request_latency_ms", "End-to-end request latency (ms).", c.latency.Histogram(), ml)
	w.Histogram("mobiledl_queue_latency_ms", "Time waiting for a batch to form (ms).", c.queue.Histogram(), ml)
	w.Histogram("mobiledl_exec_latency_ms", "Backend compute time per batch (ms).", c.exec.Histogram(), ml)
	w.WriteSortedLabels("mobiledl_placement_rows_total", "Rows answered, by execution placement.", "counter", "placement", s.Placements, ml)
}
