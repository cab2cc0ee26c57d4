package sim

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RunMeta stamps a benchmark report.
type RunMeta struct {
	Date    string
	Full    bool
	Workers int
	Host    string
}

// WriteReport renders scenario results as the SIMBENCH markdown document:
// one summary table, then per-scenario accuracy trajectories and SLO
// verdicts — the artifact full-scale runs commit.
func WriteReport(w io.Writer, meta RunMeta, results []*Result) {
	mode := "short-mode"
	if meta.Full {
		mode = "full-scale"
	}
	fmt.Fprintf(w, "# Scenario simulation benchmark — %s\n\n", meta.Date)
	fmt.Fprintf(w, "Mode: %s. Coordinator workers: %d.", mode, meta.Workers)
	if meta.Host != "" {
		fmt.Fprintf(w, " Host: %s.", meta.Host)
	}
	fmt.Fprint(w, "\n\n")

	fmt.Fprintln(w, "| scenario | clients | rounds | rounds/sec | final acc | best acc | merged | failed | peak RSS | SLO |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|")
	for _, r := range results {
		fmt.Fprintf(w, "| %s | %d | %d | %.2f | %.4f | %.4f | %d | %d | %s | %s |\n",
			r.Scenario.Name, r.Scenario.Clients, r.Rounds, r.RoundsPerSec,
			r.FinalAccuracy, r.BestAccuracy,
			r.MergedUpdates, r.FailedClients,
			fmtBytes(r.PeakRSSBytes), sloVerdict(r))
	}

	for _, r := range results {
		fmt.Fprintf(w, "\n## %s\n\n", r.Scenario.Name)
		fmt.Fprintf(w, "- population: %d clients over %d archetype shards, cohort %d, seed %d\n",
			r.Scenario.Clients, r.Scenario.Archetypes, r.Scenario.Cohort, r.Scenario.Seed)
		if f := faultLine(r.Scenario); f != "" {
			fmt.Fprintf(w, "- faults: %s\n", f)
		}
		fmt.Fprintf(w, "- training: %d rounds in %s (%.2f rounds/sec)\n",
			r.Rounds, r.TrainDuration.Round(time.Millisecond), r.RoundsPerSec)
		fmt.Fprintf(w, "- accuracy trajectory: %s\n", trajectory(r.Accuracies))
		if r.Scenario.Scored {
			fmt.Fprintf(w, "- selector reputation: honest mean %.3f, adversary mean %.3f\n",
				r.HonestScore, r.AdversaryScore)
		}
		for _, rep := range r.Replay {
			if rep == nil {
				continue
			}
			fmt.Fprintf(w, "- replay: %d sent (%d skipped client-side), statuses %v\n",
				rep.Sent, rep.Skipped, rep.Statuses)
			fmt.Fprintf(w, "- SLO: p99 %.1fms, shed rate %.4f, error rate %.4f — %s\n",
				rep.P99Ms, rep.ShedRate, rep.ErrorRate, passFail(rep.SLOPass))
			for _, v := range rep.Violations {
				fmt.Fprintf(w, "  - violation: %s\n", v)
			}
		}
	}
}

func faultLine(sc Scenario) string {
	var parts []string
	if sc.StragglerFrac > 0 {
		parts = append(parts, fmt.Sprintf("%.0f%% stragglers", 100*sc.StragglerFrac))
	}
	if sc.DropoutRate > 0 {
		parts = append(parts, fmt.Sprintf("%.0f%% dropout/round", 100*sc.DropoutRate))
	}
	if sc.PoisonFrac > 0 {
		parts = append(parts, fmt.Sprintf("%.0f%% poisoned (scale %.0f)", 100*sc.PoisonFrac, sc.PoisonScale))
	}
	if sc.StaleFrac > 0 {
		parts = append(parts, fmt.Sprintf("%.0f%% stale-base", 100*sc.StaleFrac))
	}
	if sc.Diurnal {
		parts = append(parts, fmt.Sprintf("diurnal participation (%.0f%% skewed)", 100*sc.SkewFrac))
	}
	return strings.Join(parts, ", ")
}

func trajectory(accs []float64) string {
	if len(accs) == 0 {
		return "(no evaluated rounds)"
	}
	parts := make([]string, len(accs))
	for i, a := range accs {
		parts[i] = fmt.Sprintf("%.3f", a)
	}
	return strings.Join(parts, " → ")
}

func sloVerdict(r *Result) string {
	if len(r.Replay) == 0 {
		return "n/a"
	}
	for _, rep := range r.Replay {
		if rep == nil || !rep.SLOPass {
			return "FAIL"
		}
	}
	return "pass"
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

func fmtBytes(b int64) string {
	switch {
	case b <= 0:
		return "n/a"
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%d KiB", b>>10)
	}
}
