package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition-format series sample: a metric name (for
// histograms, the `_bucket`/`_sum`/`_count` series name), its label set, and
// the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed Prometheus text exposition payload — the read side of
// PromWriter, shared by acceptance harnesses (clustercheck, fedsim) and
// tests so each caller stops hand-rolling `strings.Contains` matching
// against raw metric text. Build one with ParseProm or ScrapeURL and query
// it with Value / Sum / HistogramBuckets.
type Scrape struct {
	samples []Sample
	types   map[string]string // family -> TYPE declaration
}

// ParseProm parses a text exposition (format 0.0.4) payload. Unparseable
// sample lines are an error; HELP/TYPE comments are retained as family
// metadata and other comments are skipped.
func ParseProm(text string) (*Scrape, error) {
	s := &Scrape{types: make(map[string]string)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if fields := strings.Fields(line); len(fields) >= 4 && fields[1] == "TYPE" {
				s.types[fields[2]] = fields[3]
			}
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", ln+1, err)
		}
		s.samples = append(s.samples, sample)
	}
	return s, nil
}

// ScrapeURL fetches url (a /metrics endpoint) and parses the payload.
func ScrapeURL(url string) (*Scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("metrics: scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: scrape %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metrics: scrape %s: %w", url, err)
	}
	return ParseProm(string(body))
}

// parseSampleLine parses `name{l1="v1",l2="v2"} value` (labels optional).
func parseSampleLine(line string) (Sample, error) {
	sample := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return sample, fmt.Errorf("no value: %q", line)
	} else if i == 0 {
		return sample, fmt.Errorf("no metric name: %q", line)
	} else {
		sample.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, sample.Labels)
		if err != nil {
			return sample, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return sample, fmt.Errorf("no value: %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return sample, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	sample.Value = v
	return sample, nil
}

// parseLabels parses a `{name="value",...}` block starting at s[0] == '{',
// un-escaping label values, and returns the index just past the closing '}'.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("unterminated label block")
		}
		name := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s: missing opening quote", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		out[name] = val.String()
	}
}

// matches reports whether the sample carries every given label pair (the
// sample may have more).
func (s Sample) matches(labels []Label) bool {
	for _, l := range labels {
		if s.Labels[l.Name] != l.Value {
			return false
		}
	}
	return true
}

// Type returns the declared TYPE of a family ("" when undeclared).
//
//nolint:deadexport // test seam: serve tests
func (s *Scrape) Type(name string) string { return s.types[name] }

// Value returns the first sample of the named series matching every given
// label, and whether one was found.
//
//nolint:deadexport // test seam: serve and cmd/mobiledlserve tests
func (s *Scrape) Value(name string, labels ...Label) (float64, bool) {
	for _, sm := range s.samples {
		if sm.Name == name && sm.matches(labels) {
			return sm.Value, true
		}
	}
	return 0, false
}

// Sum adds every sample of the named series matching the given label subset
// — e.g. a counter summed across its `model` label.
func (s *Scrape) Sum(name string, labels ...Label) float64 {
	var total float64
	for _, sm := range s.samples {
		if sm.Name == name && sm.matches(labels) {
			total += sm.Value
		}
	}
	return total
}

// HistogramBuckets returns the named histogram's cumulative buckets matching
// the given label subset, as parallel (ascending bound, cumulative count)
// slices with the +Inf bucket last. Series split across labels (e.g. one
// histogram per model) are summed per bound.
func (s *Scrape) HistogramBuckets(name string, labels ...Label) (bounds []float64, counts []float64) {
	acc := map[float64]float64{}
	for _, sm := range s.samples {
		if sm.Name != name+"_bucket" || !sm.matches(labels) {
			continue
		}
		le := sm.Labels["le"]
		var bound float64
		if le == "+Inf" {
			bound = math.Inf(1)
		} else {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = v
		}
		acc[bound] += sm.Value
	}
	for b := range acc {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	counts = make([]float64, len(bounds))
	for i, b := range bounds {
		counts[i] = acc[b]
	}
	return bounds, counts
}

// BucketQuantile computes a quantile from cumulative histogram buckets
// (ascending bounds, the last of which may be +Inf). It is also the delta
// path for windowed SLO math: subtract two scrapes' cumulative counts and
// pass the difference.
func BucketQuantile(q float64, bounds, counts []float64) (float64, error) {
	if len(bounds) == 0 || len(bounds) != len(counts) {
		return 0, fmt.Errorf("%w: %d bounds, %d counts", ErrInput, len(bounds), len(counts))
	}
	total := counts[len(counts)-1]
	if total <= 0 {
		return 0, fmt.Errorf("%w: empty histogram", ErrInput)
	}
	rank := q * total
	for i, c := range counts {
		if c < rank {
			continue
		}
		hi := bounds[i]
		if math.IsInf(hi, 1) {
			// Saturate at the highest finite bound; the true value is
			// unknowable past it.
			if i == 0 {
				return 0, fmt.Errorf("%w: only a +Inf bucket", ErrInput)
			}
			return bounds[i-1], nil
		}
		lo, loCount := 0.0, 0.0
		if i > 0 {
			lo, loCount = bounds[i-1], counts[i-1]
		}
		if c == loCount {
			return hi, nil
		}
		return lo + (hi-lo)*(rank-loCount)/(c-loCount), nil
	}
	return bounds[len(bounds)-1], nil
}
