package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

func TestLatencyRecorderQuantiles(t *testing.T) {
	r := NewLatencyRecorder(1000)
	for i := 1; i <= 100; i++ {
		r.Record(float64(i))
	}
	if r.Count() != 100 {
		t.Fatalf("count %d, want 100", r.Count())
	}
	p50, err := r.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p50-50.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 50.5", p50)
	}
	s := r.Snapshot()
	if s.Max != 100 || math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.P99 < s.P90 || s.P90 < s.P50 {
		t.Fatalf("quantiles out of order: %+v", s)
	}
	if _, err := r.Quantile(1.5); !errors.Is(err, ErrInput) {
		t.Fatalf("out-of-range quantile: %v", err)
	}
}

func TestLatencyRecorderEmptyAndInvalid(t *testing.T) {
	r := NewLatencyRecorder(8)
	if _, err := r.Quantile(0.5); !errors.Is(err, ErrInput) {
		t.Fatalf("empty quantile: %v", err)
	}
	if s := r.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
	r.Record(-1)
	r.Record(math.NaN())
	if r.Count() != 0 {
		t.Fatal("invalid samples must be dropped")
	}
}

func TestLatencyRecorderSlidingWindow(t *testing.T) {
	r := NewLatencyRecorder(4)
	for i := 0; i < 100; i++ {
		r.Record(1000) // old regime
	}
	for i := 0; i < 4; i++ {
		r.Record(1) // new regime fills the window
	}
	p99, err := r.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 1 {
		t.Fatalf("window quantile should forget old samples, p99 = %v", p99)
	}
	// Lifetime stats still remember everything.
	if s := r.Snapshot(); s.Count != 104 || s.Max != 1000 {
		t.Fatalf("lifetime stats %+v", s)
	}
}

// TestLatencyRecorderQuantileEdges pins the boundary cases: a window of
// one sample answers every quantile with that sample, and q=0 / q=1 are the
// window minimum and maximum exactly (no interpolation off the ends).
func TestLatencyRecorderQuantileEdges(t *testing.T) {
	one := NewLatencyRecorder(1)
	one.Record(7)
	one.Record(42) // window of 1: only the latest sample remains
	for _, q := range []float64{0, 0.5, 1} {
		got, err := one.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != 42 {
			t.Fatalf("Quantile(%v) on a window of 1 = %v, want 42", q, got)
		}
	}

	r := NewLatencyRecorder(16)
	for _, v := range []float64{9, 3, 12, 1, 6} {
		r.Record(v)
	}
	if got, err := r.Quantile(0); err != nil || got != 1 {
		t.Fatalf("Quantile(0) = %v, %v; want the window minimum 1", got, err)
	}
	if got, err := r.Quantile(1); err != nil || got != 12 {
		t.Fatalf("Quantile(1) = %v, %v; want the window maximum 12", got, err)
	}
	if _, err := r.Quantile(math.NaN()); !errors.Is(err, ErrInput) {
		t.Fatalf("NaN quantile: %v, want ErrInput", err)
	}
	if _, err := r.Quantile(-0.1); !errors.Is(err, ErrInput) {
		t.Fatalf("negative quantile: %v, want ErrInput", err)
	}
}

func TestLatencyRecorderHistogram(t *testing.T) {
	r := NewLatencyRecorder(4)
	for _, v := range []float64{0.01, 0.3, 30, 5000} {
		r.Record(v)
	}
	h := r.Histogram()
	if h.Count != 4 || math.Abs(h.Sum-5030.31) > 1e-9 {
		t.Fatalf("histogram count=%d sum=%v", h.Count, h.Sum)
	}
	if len(h.Counts) != len(h.Bounds) {
		t.Fatalf("%d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
	// Cumulative counts must be monotonic and end below Count when samples
	// overflow the last bound (5000 > 1000 lives only in +Inf).
	var prev uint64
	for i, c := range h.Counts {
		if c < prev {
			t.Fatalf("bucket %d not cumulative: %v", i, h.Counts)
		}
		prev = c
	}
	if last := h.Counts[len(h.Counts)-1]; last != 3 {
		t.Fatalf("last bound holds %d, want 3 (one sample beyond every bound)", last)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := NewLatencyRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(float64(g*500 + i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Count() != 4000 {
		t.Fatalf("count %d, want 4000", r.Count())
	}
}

// Count returns the lifetime number of recorded observations.
func (r *LatencyRecorder) Count() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Quantile returns the q-th quantile (0 <= q <= 1) over the sliding window,
// with linear interpolation between adjacent order statistics. It returns an
// error when no samples have been recorded or q is out of range.
func (r *LatencyRecorder) Quantile(q float64) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("%w: quantile %v", ErrInput, q)
	}
	r.mu.Lock()
	window := append([]float64(nil), r.samples...)
	r.mu.Unlock()
	if len(window) == 0 {
		return 0, fmt.Errorf("%w: no samples recorded", ErrInput)
	}
	sort.Float64s(window)
	return quantileOf(window, q), nil
}
