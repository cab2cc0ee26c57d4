// Package sim is the million-client scenario harness: it drives a real
// fedserve.Coordinator (and optionally a real serve HTTP stack) with a
// simulated heterogeneous client population — device classes, non-IID data,
// churn, stragglers, clock skew, and faulty or adversarial updates — plus a
// diurnal traffic generator that replays load against /v1/predict and
// asserts SLOs from the server's own /metrics histograms.
//
// Everything is deterministic per scenario seed: client profiles are hashed,
// never drawn from shared mutable state, so the same scenario reproduces
// bit-identical round outcomes at any worker count (see the determinism
// regression test).
package sim

import (
	"fmt"
	"time"
)

// SLO is the service-level objective a traffic replay is judged against,
// evaluated from the /metrics deltas observed across the replay window.
type SLO struct {
	// P99Ms bounds the 99th-percentile request latency in milliseconds
	// (0 = not asserted).
	P99Ms float64
	// MaxShedRate bounds shed requests / total attempts.
	MaxShedRate float64
	// MaxErrorRate bounds (expired + errored) requests / total attempts.
	MaxErrorRate float64
}

// ReplaySpec describes one diurnal traffic replay against /v1/predict: the
// request rate follows a compressed day, ramping from BaseRPS at "night" to
// PeakRPS at "midday".
type ReplaySpec struct {
	// Duration is the wall-clock length of the compressed day.
	Duration time.Duration
	// BaseRPS / PeakRPS bound the diurnal rate curve.
	BaseRPS float64
	PeakRPS float64
	// Workers bounds concurrent in-flight requests (default 16).
	Workers int
	// TimeoutMs is the per-request deadline budget sent as timeout_ms
	// (0 = none; the server's DefaultTimeout still applies).
	TimeoutMs int
	// SLO is asserted over the replay window.
	SLO SLO
}

func (r *ReplaySpec) fill() {
	if r.Workers <= 0 {
		r.Workers = 16
	}
	if r.Duration <= 0 {
		r.Duration = 2 * time.Second
	}
}

// Scenario is one end-to-end simulation: a virtual population, its fault and
// adversary mix, the round schedule, and (optionally) a traffic replay.
type Scenario struct {
	Name string

	// Clients is the virtual population size. Virtual clients alias a small
	// set of real non-IID Archetypes shards (default 32), so a million-client
	// population costs a million slice entries, not a million datasets.
	Clients    int
	Archetypes int

	// Rounds / Cohort shape the round schedule: Cohort clients are selected
	// per round from the eligible population.
	Rounds int
	Cohort int
	Seed   int64

	// Local training knobs (defaults: 2 epochs, batch 16, lr 0.1).
	LocalEpochs int
	LocalBatch  int
	LocalLR     float64

	// StragglerFrac is the fraction of clients on slow midrange devices;
	// their simulated training cost (from mobile.WorkloadFor) is slept in
	// compressed time. The rest run flagship-class hardware.
	StragglerFrac float64
	// DropoutRate is the per-(round, client) probability that a dispatched
	// client vanishes mid-round (hash-deterministic churn).
	DropoutRate float64
	// PoisonFrac marks adversarial clients that submit model-replacement
	// updates: w' = global - PoisonScale*(w_trained - global), the
	// sign-flipped boosted delta (default scale 10).
	PoisonFrac  float64
	PoisonScale float64
	// StaleFrac marks clients that train from the previous round's global
	// weights (stale-base faults).
	StaleFrac float64

	// Diurnal gates per-round participation on each client's local hour
	// (clients are awake 06:00-24:00); SkewFrac spreads that fraction of
	// clients across time zones (uniform 0-24h offsets). HoursPerRound is
	// how much simulated clock advances per round (default 2).
	Diurnal       bool
	SkewFrac      float64
	HoursPerRound float64

	// Scored selects clients with a fedserve.ScoredSelector (reputation-
	// weighted sampling, anomaly-attenuated merging) instead of uniformly.
	Scored bool

	// Replay, if non-nil, runs a diurnal /v1/predict replay concurrently
	// with training and asserts its SLO.
	Replay *ReplaySpec
}

func (sc *Scenario) fill() {
	if sc.Clients <= 0 {
		sc.Clients = 20000
	}
	if sc.Archetypes <= 0 {
		sc.Archetypes = 32
	}
	if sc.Rounds <= 0 {
		sc.Rounds = 8
	}
	if sc.Cohort <= 0 {
		sc.Cohort = 64
	}
	if sc.LocalEpochs <= 0 {
		sc.LocalEpochs = 2
	}
	if sc.LocalBatch <= 0 {
		sc.LocalBatch = 16
	}
	if sc.LocalLR <= 0 {
		sc.LocalLR = 0.1
	}
	if sc.PoisonScale <= 0 {
		sc.PoisonScale = 10
	}
	if sc.HoursPerRound <= 0 {
		sc.HoursPerRound = 2
	}
	if sc.Replay != nil {
		sc.Replay.fill()
	}
}

// Named scenarios. All share seed 1 and the same archetype dataset, so their
// accuracy trajectories are directly comparable (the poisoned-vs-baseline
// acceptance bound depends on this).

// Baseline is the clean population: no faults, uniform selection.
func Baseline() Scenario {
	return Scenario{Name: "baseline", Seed: 1, StragglerFrac: 0.3}
}

// Dropout30 loses 30% of dispatched clients every round.
func Dropout30() Scenario {
	return Scenario{Name: "dropout30", Seed: 1, StragglerFrac: 0.3, DropoutRate: 0.3}
}

// Poisoned10 gives 10% of the population to a model-replacement adversary,
// defended by the scored selector.
func Poisoned10() Scenario {
	return Scenario{Name: "poisoned10", Seed: 1, StragglerFrac: 0.3, PoisonFrac: 0.10, Scored: true}
}

// ClockSkew spreads half the population across time zones with diurnal
// participation, plus a slice of stale-base clients.
func ClockSkew() Scenario {
	return Scenario{Name: "clockskew", Seed: 1, StragglerFrac: 0.3,
		Diurnal: true, SkewFrac: 0.5, StaleFrac: 0.1}
}

// DiurnalBurst replays a compressed day of predict traffic — base load
// overnight, a burst at midday — against the serving stack while training
// runs, asserting the latency/shed/error SLO from /metrics.
func DiurnalBurst() Scenario {
	return Scenario{Name: "diurnal-burst", Seed: 1, StragglerFrac: 0.3,
		Diurnal: true, SkewFrac: 1,
		Replay: &ReplaySpec{
			Duration: 3 * time.Second,
			BaseRPS:  40, PeakRPS: 200,
			Workers:   32,
			TimeoutMs: 2000,
			SLO:       SLO{P99Ms: 500, MaxShedRate: 0.01, MaxErrorRate: 0.01},
		}}
}

// Scenarios lists every named scenario in presentation order.
func Scenarios() []Scenario {
	return []Scenario{Baseline(), Dropout30(), Poisoned10(), ClockSkew(), DiurnalBurst()}
}

// ByName resolves a named scenario.
func ByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("sim: unknown scenario %q", name)
}
