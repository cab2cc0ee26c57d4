package metrics

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

const scrapeFixture = `# HELP mobiledl_requests_total Requests answered successfully.
# TYPE mobiledl_requests_total counter
mobiledl_requests_total{model="a"} 10
mobiledl_requests_total{model="b"} 32
# HELP mobiledl_queue_depth Requests waiting.
# TYPE mobiledl_queue_depth gauge
mobiledl_queue_depth{model="a"} 3
# HELP mobiledl_request_latency_ms End-to-end latency.
# TYPE mobiledl_request_latency_ms histogram
mobiledl_request_latency_ms_bucket{model="a",le="1"} 50
mobiledl_request_latency_ms_bucket{model="a",le="10"} 90
mobiledl_request_latency_ms_bucket{model="a",le="100"} 99
mobiledl_request_latency_ms_bucket{model="a",le="+Inf"} 100
mobiledl_request_latency_ms_sum{model="a"} 421.5
mobiledl_request_latency_ms_count{model="a"} 100
escaped{path="a\"b\\c\nd"} 1
`

func TestParsePromRoundTrip(t *testing.T) {
	s, err := ParseProm(scrapeFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has("mobiledl_requests_total") || s.Type("mobiledl_requests_total") != "counter" {
		t.Fatalf("counter family missing or untyped: %q", s.Type("mobiledl_requests_total"))
	}
	if s.Type("mobiledl_request_latency_ms") != "histogram" {
		t.Fatal("histogram TYPE not retained")
	}
	if v, ok := s.Value("mobiledl_requests_total", Label{Name: "model", Value: "b"}); !ok || v != 32 {
		t.Fatalf("Value(model=b) = %v, %v", v, ok)
	}
	if _, ok := s.Value("mobiledl_requests_total", Label{Name: "model", Value: "zzz"}); ok {
		t.Fatal("Value matched a missing label")
	}
	if got := s.Sum("mobiledl_requests_total"); got != 42 {
		t.Fatalf("Sum across models = %v, want 42", got)
	}
	if v, ok := s.Value("escaped", Label{Name: "path", Value: "a\"b\\c\nd"}); !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v %v", v, ok)
	}
	if s.Has("nonexistent_family") {
		t.Fatal("Has matched a missing family")
	}
}

// TestParsePromReadsPromWriterOutput pins the writer/parser pair: whatever
// PromWriter emits, ParseProm must read back, including histograms and
// escaped labels.
func TestParsePromReadsPromWriterOutput(t *testing.T) {
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	pw.Counter("c_total", "help", 7, Label{Name: "weird", Value: "a\"b\\c\nd"})
	pw.Gauge("g", "help", 2.5)
	rec := NewLatencyRecorder(16)
	for _, v := range []float64{0.2, 0.7, 3, 40, 900} {
		rec.Record(v)
	}
	pw.Histogram("lat_ms", "help", rec.Histogram())
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := ParseProm(buf.String())
	if err != nil {
		t.Fatalf("parse of PromWriter output: %v\n%s", err, buf.String())
	}
	if v, ok := s.Value("c_total", Label{Name: "weird", Value: "a\"b\\c\nd"}); !ok || v != 7 {
		t.Fatalf("counter round-trip: %v %v", v, ok)
	}
	if v, ok := s.Value("lat_ms_count"); !ok || v != 5 {
		t.Fatalf("histogram count round-trip: %v %v", v, ok)
	}
	bounds, counts := s.HistogramBuckets("lat_ms")
	if len(bounds) != len(DefaultLatencyBuckets)+1 || !math.IsInf(bounds[len(bounds)-1], 1) {
		t.Fatalf("bucket shape: %v", bounds)
	}
	if counts[len(counts)-1] != 5 {
		t.Fatalf("+Inf bucket = %v, want 5", counts[len(counts)-1])
	}
}

func TestScrapeURL(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(scrapeFixture))
	}))
	defer ts.Close()
	s, err := ScrapeURL(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sum("mobiledl_requests_total"); got != 42 {
		t.Fatalf("scraped sum = %v", got)
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	if _, err := ScrapeURL(bad.URL); err == nil {
		t.Fatal("500 scrape did not error")
	}
}

func TestHistogramQuantile(t *testing.T) {
	s, err := ParseProm(scrapeFixture)
	if err != nil {
		t.Fatal(err)
	}
	// Median: rank 50 lands exactly on the le=1 bucket boundary.
	p50, err := s.HistogramQuantile("mobiledl_request_latency_ms", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 <= 0 || p50 > 1 {
		t.Fatalf("p50 = %v, want (0, 1]", p50)
	}
	// p95: rank 95 falls in (10, 100], 5/9ths of the way through.
	p95, err := s.HistogramQuantile("mobiledl_request_latency_ms", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 + 90*(95.0-90)/9
	if math.Abs(p95-want) > 1e-9 {
		t.Fatalf("p95 = %v, want %v", p95, want)
	}
	// p999 lands in +Inf: saturates at the highest finite bound.
	p999, err := s.HistogramQuantile("mobiledl_request_latency_ms", 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if p999 != 100 {
		t.Fatalf("p999 = %v, want saturation at 100", p999)
	}
	if _, err := s.HistogramQuantile("missing_histogram", 0.5); err == nil {
		t.Fatal("missing histogram did not error")
	}
	if _, err := s.HistogramQuantile("mobiledl_request_latency_ms", 1.5); err == nil {
		t.Fatal("out-of-range quantile did not error")
	}
}

func TestBucketQuantileEdges(t *testing.T) {
	if _, err := BucketQuantile(0.5, nil, nil); err == nil {
		t.Fatal("empty buckets did not error")
	}
	if _, err := BucketQuantile(0.5, []float64{1, math.Inf(1)}, []float64{0, 0}); err == nil {
		t.Fatal("zero-count histogram did not error")
	}
	// All mass in the first bucket: q interpolates inside [0, bound].
	v, err := BucketQuantile(0.5, []float64{10, math.Inf(1)}, []float64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("single-bucket p50 = %v, want 5", v)
	}
}

func TestScrapeMerge(t *testing.T) {
	a, err := ParseProm("x_total{node=\"a\"} 1\n")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseProm("# TYPE x_total counter\nx_total{node=\"b\"} 2\n")
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if got := a.Sum("x_total"); got != 3 {
		t.Fatalf("merged sum = %v", got)
	}
	if a.Type("x_total") != "counter" {
		t.Fatal("merge dropped the type")
	}
}

// Has reports whether any series of the named family was scraped (for
// histograms, the family name matches its `_bucket`/`_sum`/`_count` series
// too).
func (s *Scrape) Has(name string) bool {
	if _, ok := s.types[name]; ok {
		return true
	}
	for _, sm := range s.samples {
		if sm.Name == name {
			return true
		}
	}
	return false
}

// Merge folds another scrape's samples into this one (types from the other
// scrape win only where unset), so per-node scrapes aggregate into one
// cluster-wide view.
func (s *Scrape) Merge(o *Scrape) {
	s.samples = append(s.samples, o.samples...)
	for k, v := range o.types {
		if _, ok := s.types[k]; !ok {
			s.types[k] = v
		}
	}
}

// HistogramQuantile estimates the q-th quantile of the named histogram from
// its cumulative buckets (the prometheus histogram_quantile estimator:
// linear interpolation within the landing bucket). The result saturates at
// the highest finite bound when the quantile lands in the +Inf bucket.
// Errors when the histogram is missing or empty.
func (s *Scrape) HistogramQuantile(name string, q float64, labels ...Label) (float64, error) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("%w: quantile %v", ErrInput, q)
	}
	bounds, counts := s.HistogramBuckets(name, labels...)
	return BucketQuantile(q, bounds, counts)
}

// renderRandomPage fills a PromWriter with random counter, gauge and
// histogram families — special floats, and help texts and label values full
// of the characters the format escapes or delimits by — and returns the
// page, every sample in render order, and each family's kind.
func renderRandomPage(t *testing.T, rng *rand.Rand) (string, []Sample, map[string]string) {
	t.Helper()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 53, -1e-300}
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	alphabet := []rune("ab_Z09 ,={}#\\\"\n\t\rµ")
	text := func(n int) string {
		r := make([]rune, rng.Intn(n+1))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	var want []Sample
	kinds := map[string]string{}
	for f := rng.Intn(6); f >= 0; f-- {
		fam := fmt.Sprintf("fam%d_x", f)
		help := text(12)
		kinds[fam] = []string{"counter", "gauge", "histogram"}[rng.Intn(3)]
		for s := rng.Intn(3); s >= 0; s-- {
			var labels []Label
			lm := map[string]string{}
			for l := rng.Intn(4); l > 0; l-- {
				name := fmt.Sprintf("l%d", l)
				lm[name] = text(10)
				labels = append(labels, Label{Name: name, Value: lm[name]})
			}
			add := func(name string, v float64, le ...string) {
				m := maps.Clone(lm)
				if le != nil {
					m["le"] = le[0]
				}
				want = append(want, Sample{Name: name, Labels: m, Value: v})
			}
			switch kinds[fam] {
			case "counter":
				v := value()
				pw.Counter(fam, help, v, labels...)
				add(fam, v)
			case "gauge":
				v := value()
				pw.Gauge(fam, help, v, labels...)
				add(fam, v)
			default:
				h := HistogramSnapshot{Sum: value()}
				bound := -50 * rng.Float64()
				for b := rng.Intn(4); b >= 0; b-- {
					bound += rng.ExpFloat64()
					h.Count += uint64(rng.Intn(1000))
					h.Bounds = append(h.Bounds, bound)
					h.Counts = append(h.Counts, h.Count)
				}
				h.Count += uint64(rng.Int63())
				pw.Histogram(fam, help, h, labels...)
				for i, b := range h.Bounds {
					add(fam+"_bucket", float64(h.Counts[i]), formatFloat(b))
				}
				add(fam+"_bucket", float64(h.Count), "+Inf")
				add(fam+"_sum", h.Sum)
				add(fam+"_count", float64(h.Count))
			}
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String(), want, kinds
}

// sameSample compares bit for bit, except that any NaN matches any NaN.
func sameSample(a, b Sample) bool {
	sameValue := math.Float64bits(a.Value) == math.Float64bits(b.Value) ||
		math.IsNaN(a.Value) && math.IsNaN(b.Value)
	return a.Name == b.Name && maps.Equal(a.Labels, b.Labels) && sameValue
}

// TestParsePromReadsRandomPages: random families rendered by PromWriter read
// back through ParseProm sample for sample, bit for bit, with their TYPEs.
func TestParsePromReadsRandomPages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		page, want, kinds := renderRandomPage(t, rng)
		s, err := ParseProm(page)
		if err != nil {
			t.Fatalf("page %d: %v\n%s", i, err, page)
		}
		if len(s.samples) != len(want) {
			t.Fatalf("page %d: parsed %d samples, rendered %d\n%s", i, len(s.samples), len(want), page)
		}
		for j := range want {
			if !sameSample(s.samples[j], want[j]) {
				t.Fatalf("page %d sample %d: parsed %+v, rendered %+v\n%s", i, j, s.samples[j], want[j], page)
			}
		}
		if !maps.Equal(s.types, kinds) {
			t.Fatalf("page %d: parsed TYPEs %v, rendered %v", i, s.types, kinds)
		}
	}
}

// FuzzParseProm: the parser never panics, and every sample it accepts
// renders back through PromWriter to a line that parses to the same sample.
func FuzzParseProm(f *testing.F) {
	var buf bytes.Buffer
	pw := NewPromWriter(&buf)
	odd := Label{Name: "path", Value: "a\\b\"c\nd"}
	pw.Counter("mobiledl_x_total", "Counts \\ and\nlines.", 3, odd)
	pw.Gauge("mobiledl_g", "A gauge.", math.Inf(-1), odd, Label{Name: "m", Value: ""})
	pw.Histogram("mobiledl_lat_ms", "Latency.", HistogramSnapshot{
		Bounds: []float64{0.5, 1}, Counts: []uint64{1, 2}, Count: 3, Sum: math.NaN()}, odd)
	if err := pw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(scrapeFixture)
	for _, bad := range []string{"x", "x{", `x{a="b"`, `x{a=b} 1`, `x{a="b\`, "x 1e999", `{a="\n"} NaN`, "# TYPE", "x{,,} -Inf 17"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, page string) {
		s, err := ParseProm(page)
		if err != nil {
			return
		}
		for _, sm := range s.samples {
			var labels []Label
			for _, name := range slices.Sorted(maps.Keys(sm.Labels)) {
				labels = append(labels, Label{Name: name, Value: sm.Labels[name]})
			}
			pw := NewPromWriter(nil)
			pw.line("f", sm.Name, sm.Value, labels)
			again, err := ParseProm(pw.lines["f"][0])
			if err != nil || len(again.samples) != 1 || !sameSample(again.samples[0], sm) {
				t.Fatalf("%+v re-rendered as %q: %v", sm, pw.lines["f"][0], err)
			}
		}
	})
}
