package metrics

import (
	"math"
	"sort"
	"sync"
)

// DefaultLatencyBuckets are the cumulative histogram bounds (milliseconds)
// a LatencyRecorder tracks for Prometheus exposition: sub-millisecond
// resolution where batched serving lives, coarsening toward the second mark.
var DefaultLatencyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// LatencyRecorder accumulates latency observations for a serving runtime.
// Quantiles are computed over a sliding window of the most recent samples
// (a fixed-capacity ring, so memory is bounded under sustained load), while
// count, mean, max, and the histogram buckets cover the recorder's whole
// lifetime — Prometheus histograms must be monotonic, so they cannot ride
// the sliding window. All methods are safe for concurrent use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []float64 // ring buffer of recent observations
	next    int       // ring write cursor
	count   uint64
	sum     float64
	max     float64
	bounds  []float64 // ascending histogram upper bounds
	buckets []uint64  // per-bucket (non-cumulative) lifetime counts
}

// NewLatencyRecorder builds a recorder whose quantile window holds capacity
// samples (minimum 1), with DefaultLatencyBuckets histogram bounds.
func NewLatencyRecorder(capacity int) *LatencyRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &LatencyRecorder{
		samples: make([]float64, 0, capacity),
		bounds:  DefaultLatencyBuckets,
		buckets: make([]uint64, len(DefaultLatencyBuckets)),
	}
}

// Record adds one observation (any unit; callers in this repo use
// milliseconds). NaN and negative values are dropped.
func (r *LatencyRecorder) Record(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	r.sum += v
	if v > r.max {
		r.max = v
	}
	for i, bound := range r.bounds {
		if v <= bound {
			r.buckets[i]++
			break
		}
	}
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, v)
		return
	}
	r.samples[r.next] = v
	r.next = (r.next + 1) % cap(r.samples)
}

// quantileOf interpolates the q-th quantile of an already-sorted, non-empty
// sample.
func quantileOf(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// HistogramSnapshot is the cumulative-bucket digest of a LatencyRecorder,
// shaped for Prometheus exposition: Counts[i] is the lifetime number of
// observations <= Bounds[i], and Count/Sum close the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // cumulative; same length as Bounds
	Count  uint64   // lifetime observations (the +Inf bucket)
	Sum    float64
}

// Histogram snapshots the lifetime cumulative buckets.
func (r *LatencyRecorder) Histogram() HistogramSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := HistogramSnapshot{
		Bounds: r.bounds,
		Counts: make([]uint64, len(r.buckets)),
		Count:  r.count,
		Sum:    r.sum,
	}
	var cum uint64
	for i, n := range r.buckets {
		cum += n
		h.Counts[i] = cum
	}
	return h
}

// LatencySummary is a point-in-time digest of a LatencyRecorder, shaped for
// a stats endpoint.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot digests the recorder. An empty recorder yields a zero summary.
func (r *LatencyRecorder) Snapshot() LatencySummary {
	r.mu.Lock()
	s := LatencySummary{Count: r.count, Max: r.max}
	if r.count > 0 {
		s.Mean = r.sum / float64(r.count)
	}
	window := append([]float64(nil), r.samples...)
	r.mu.Unlock()
	if len(window) == 0 {
		return s
	}
	sort.Float64s(window)
	s.P50 = quantileOf(window, 0.50)
	s.P90 = quantileOf(window, 0.90)
	s.P99 = quantileOf(window, 0.99)
	return s
}
