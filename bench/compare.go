package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the three cut points Python's statistics.quantiles(v,
// n=4) gives (its default, exclusive method): the driver judges spread by
// them, so the comparison uses the same arithmetic. It needs two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one result file's untraced runs of one workload.
type side struct {
	values            map[string][]float64 // per end-to-end metric
	attempted, failed int
}

func sideOf(f *resultFile, workload string) side {
	s := side{values: make(map[string][]float64)}
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return s
}

// summary prints a side's median (and quartiles when it has the runs for
// them) and returns the median and the quartile spread as a share of it;
// the spread is -1 when a single run gives none.
func summary(w io.Writer, values []float64) (med, spread float64) {
	if len(values) == 0 {
		fmt.Fprintf(w, " %12s %-24s", "-", "(not reported)")
		return math.NaN(), -1
	}
	if len(values) < 2 {
		fmt.Fprintf(w, " %12.5g %-24s", values[0], "(1 run)")
		return values[0], -1
	}
	q1, q2, q3 := quartiles(values)
	fmt.Fprintf(w, " %12.5g %-24s", q2, fmt.Sprintf("[%.5g..%.5g] n=%d", q1, q3, len(values)))
	return q2, (q3 - q1) / q2
}

// compareFiles prints, per workload and end-to-end metric, each file's
// median and quartiles and — given two files — B's ratio to its base A
// against the metric's bound: "worse" past the bound, "unresolved" when the
// run-to-run spread of either side is wider than the bound, else "ok". With
// one file it is the spread table of that file. The error is non-nil when
// anything is worse or B fails a larger share of its operations.
func compareFiles(w io.Writer, contractPath string, paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return errors.New("-compare takes one or two result files")
	}
	var c contract
	if err := readJSON(contractPath, &c); err != nil {
		return err
	}
	files := make([]*resultFile, len(paths))
	for i, p := range paths {
		files[i] = &resultFile{}
		if err := readJSON(p, files[i]); err != nil {
			return err
		}
	}
	for i, p := range paths {
		fmt.Fprintf(w, "%c = %s (%d runs of %gs)\n", 'A'+i, p, len(files[i].Runs), files[i].Seconds)
	}
	worse := 0
	for _, wl := range c.Workloads {
		a := sideOf(files[0], wl.Name)
		if len(a.values) == 0 {
			fmt.Fprintf(w, "\n%s: no untraced run in A\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s: A attempted %d failed %d", wl.Name, a.attempted, a.failed)
		var b side
		if len(files) == 2 {
			b = sideOf(files[1], wl.Name)
			fmt.Fprintf(w, "; B attempted %d failed %d", b.attempted, b.failed)
			if len(b.values) == 0 {
				fmt.Fprintf(w, "\n  no untraced run in B\n")
				worse++
				continue
			}
			if float64(b.failed)*float64(a.attempted) > float64(a.failed)*float64(b.attempted) {
				fmt.Fprintf(w, "  WORSE: B fails a larger share")
				worse++
			}
		}
		fmt.Fprintln(w)
		for _, m := range c.EndToEnd {
			fmt.Fprintf(w, "  %-16s %-4s A", m.Name, m.Unit)
			medA, spread := summary(w, a.values[m.Name])
			if len(files) == 1 {
				fmt.Fprintf(w, " spread %s of bound %.2f\n", share(spread), m.Bound)
				continue
			}
			fmt.Fprint(w, " B")
			medB, spreadB := summary(w, b.values[m.Name])
			loss := medB/medA - 1 // how much worse B is, as a share of A
			if m.Better == "higher" {
				loss = 1 - medB/medA
			}
			status := "ok"
			switch {
			case math.IsNaN(loss):
				status = "worse (not reported)"
				worse++
			case loss > m.Bound:
				status = "worse"
				worse++
			case max(spread, spreadB) > m.Bound:
				status = "unresolved"
			}
			fmt.Fprintf(w, " B/A %.4f (base %.5g %s, better %s) bound %.2f spread %s  %s\n",
				medB/medA, medA, m.Unit, m.Better, m.Bound, share(max(spread, spreadB)), status)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons worse than their bound", worse)
	}
	return nil
}

func share(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}
