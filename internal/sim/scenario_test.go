package sim

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// simClients scales the virtual population to the test mode: the full
// simcheck gate runs 100k clients, the default `go test` a fifth of that,
// and -short a quick smoke. Full scale (>= 500k) lives in cmd/fedsim -full.
func simClients(t *testing.T) int {
	t.Helper()
	if os.Getenv("MOBILEDL_SIMCHECK") == "1" {
		return 100_000
	}
	if testing.Short() {
		return 5_000
	}
	return 20_000
}

func runScenario(t *testing.T, sc Scenario) *Result {
	t.Helper()
	sc.Clients = simClients(t)
	r, err := Run(context.Background(), sc, Options{Workers: 4})
	if err != nil {
		t.Fatalf("scenario %s: %v", sc.Name, err)
	}
	if r.Rounds == 0 {
		t.Fatalf("scenario %s completed no rounds", sc.Name)
	}
	return r
}

// TestScenarioMatrix is the table-driven acceptance suite: every named
// training scenario must complete its rounds and converge, and each fault
// mix must leave its fingerprint in the run's accounting. (diurnal-burst,
// the replay scenario, is asserted in traffic_test.go.)
func TestScenarioMatrix(t *testing.T) {
	baseline := runScenario(t, Baseline())
	t.Run("baseline", func(t *testing.T) {
		if baseline.BestAccuracy < 0.8 {
			t.Fatalf("baseline best accuracy %.4f, want >= 0.8 (trajectory %v)",
				baseline.BestAccuracy, baseline.Accuracies)
		}
		if baseline.FailedClients != 0 {
			t.Fatalf("clean baseline counted %d failed clients", baseline.FailedClients)
		}
	})

	cases := []struct {
		sc    Scenario
		check func(t *testing.T, r *Result)
	}{
		{Dropout30(), func(t *testing.T, r *Result) {
			dispatched := r.Scenario.Rounds * r.Scenario.Cohort
			frac := float64(r.FailedClients) / float64(dispatched)
			if frac < 0.15 || frac > 0.45 {
				t.Fatalf("dropout fraction %.3f (%d/%d), want ~0.30", frac, r.FailedClients, dispatched)
			}
			if r.BestAccuracy < 0.75 {
				t.Fatalf("30%% dropout broke convergence: best %.4f (trajectory %v)",
					r.BestAccuracy, r.Accuracies)
			}
		}},
		{Poisoned10(), func(t *testing.T, r *Result) {
			// The scored selector must demonstrably down-weight adversaries...
			if r.AdversaryScore >= r.HonestScore-0.1 {
				t.Fatalf("selector did not separate adversaries: honest %.3f vs adversary %.3f",
					r.HonestScore, r.AdversaryScore)
			}
			// ...and keep the poisoned run within 5%% of the clean baseline.
			if r.BestAccuracy < baseline.BestAccuracy-0.05 {
				t.Fatalf("poisoned best %.4f more than 5%% below baseline %.4f (trajectory %v)",
					r.BestAccuracy, baseline.BestAccuracy, r.Accuracies)
			}
		}},
		{ClockSkew(), func(t *testing.T, r *Result) {
			if r.BestAccuracy < 0.75 {
				t.Fatalf("clock-skewed population failed to converge: best %.4f (trajectory %v)",
					r.BestAccuracy, r.Accuracies)
			}
			if r.MergedUpdates == 0 {
				t.Fatal("no updates merged under diurnal eligibility")
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.sc.Name, func(t *testing.T) {
			tc.check(t, runScenario(t, tc.sc))
		})
	}
}

// TestUnevaluatedRoundsStayOutOfAccuracies: a round whose whole cohort drops
// out merges nothing and is not evaluated; its History entry carries -1, and
// that marker must not leak into the accuracy trajectory.
func TestUnevaluatedRoundsStayOutOfAccuracies(t *testing.T) {
	r, err := Run(context.Background(), Scenario{
		Name: "lonely", Seed: 1, Clients: 200, Rounds: 12, Cohort: 1, DropoutRate: 0.5,
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var evaluated, empty int
	for _, rs := range r.History {
		if rs.ParticipatingUsers == 0 {
			empty++
			if rs.Accuracy != -1 {
				t.Fatalf("round %d merged nothing but reports accuracy %v", rs.Round, rs.Accuracy)
			}
		} else {
			evaluated++
		}
	}
	if empty == 0 || evaluated == 0 {
		t.Fatalf("want a mix of empty and evaluated rounds, got %d empty, %d evaluated", empty, evaluated)
	}
	if len(r.Accuracies) != evaluated {
		t.Fatalf("%d accuracies for %d evaluated rounds: %v", len(r.Accuracies), evaluated, r.Accuracies)
	}
	for _, a := range r.Accuracies {
		if a < 0 {
			t.Fatalf("unevaluated marker leaked into the trajectory: %v", r.Accuracies)
		}
	}
}

// TestPopulationProfiles pins the hashed-profile mechanics: fractions land
// near their targets over a large population, and profiles are pure
// functions of (seed, client).
func TestPopulationProfiles(t *testing.T) {
	sc := Scenario{Name: "profiles", Seed: 11, Clients: 50_000,
		StragglerFrac: 0.3, PoisonFrac: 0.1, StaleFrac: 0.2, SkewFrac: 0.5, Diurnal: true}
	pop, err := BuildPopulation(sc)
	if err != nil {
		t.Fatal(err)
	}
	var stragglers, adversaries, stale, skewed int
	for k := 0; k < sc.Clients; k++ {
		pr := pop.Profile(k)
		if pr != pop.Profile(k) {
			t.Fatalf("profile of client %d not deterministic", k)
		}
		if pr.Straggler {
			stragglers++
		}
		if pr.Adversarial {
			adversaries++
		}
		if pr.Stale {
			stale++
		}
		if pr.SkewHours > 0 {
			skewed++
		}
	}
	checkFrac := func(name string, n int, want float64) {
		got := float64(n) / float64(sc.Clients)
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s fraction %.3f, want %.2f +/- 0.02", name, got, want)
		}
	}
	checkFrac("straggler", stragglers, 0.3)
	checkFrac("adversary", adversaries, 0.1)
	checkFrac("stale", stale, 0.2)
	checkFrac("skewed", skewed, 0.5)

	// Virtual clients alias archetype shards: a million-entry population
	// must reference exactly Archetypes distinct datasets.
	seen := map[any]bool{}
	for _, s := range pop.Shards {
		seen[s] = true
	}
	if len(seen) != 32 {
		t.Fatalf("population references %d distinct shards, want %d", len(seen), 32)
	}
}

// TestScenarioRegistry pins ByName and the report renderer end to end.
func TestScenarioRegistry(t *testing.T) {
	for _, sc := range Scenarios() {
		got, err := ByName(sc.Name)
		if err != nil || got.Name != sc.Name {
			t.Fatalf("ByName(%q) = %+v, %v", sc.Name, got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown scenario")
	}
}

// TestReportRenders smoke-tests the SIMBENCH writer on a synthetic result.
func TestReportRenders(t *testing.T) {
	var sb bytes.Buffer
	r := &Result{
		Scenario:      Poisoned10(),
		Rounds:        8,
		Accuracies:    []float64{0.5, 0.8, 0.9},
		FinalAccuracy: 0.9, BestAccuracy: 0.9,
		RoundsPerSec: 3.2, HonestScore: 0.98, AdversaryScore: 0.42,
		Replay: []*ReplayOutcome{{Sent: 100, Statuses: map[int]int{200: 98, 429: 2},
			P99Ms: 12, SLOPass: true}},
		PeakRSSBytes: 200 << 20,
	}
	r.Scenario.fill()
	WriteReport(&sb, RunMeta{Date: "2026-08-08", Workers: 4}, []*Result{r})
	out := sb.String()
	for _, want := range []string{"poisoned10", "0.9000", "adversary mean 0.420", "p99 12.0ms", "200.0 MiB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
