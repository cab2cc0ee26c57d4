package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one measured value in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// print writes every metric by name and unit, then the result as one JSON
// line, which must stay the last line of standard output.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// percentiles returns the nearest-rank quantiles qs of values (zeros for
// none), sorting one copy for all of them.
func percentiles(values []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(values) == 0 {
		return out
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = s[int(q*float64(len(s)-1)+0.5)]
	}
	return out
}

func quantile(values []float64, q float64) float64 { return percentiles(values, q)[0] }

func median(values []float64) float64 { return quantile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func maxOf(values []float64) float64 {
	var m float64
	for _, v := range values {
		m = max(m, v)
	}
	return m
}

// ratio is a/b, 0 when b is 0 (a layer the workload never crossed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
