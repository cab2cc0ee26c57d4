package fedserve

import (
	"math/rand"
	"reflect"
	"testing"
)

// outcomes builds a round of outcomes where most clients report norms near 1
// and the listed deviants report the given norm.
func honestRound(n int, norm float64) []ClientOutcome {
	out := make([]ClientOutcome, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, ClientOutcome{Client: k, DeltaNorm: norm, Samples: 10})
	}
	return out
}

func TestScoredSelectorNeutralWhenUnobserved(t *testing.T) {
	s := NewScoredSelector()
	if got := s.Score(7); got != 1 {
		t.Fatalf("unobserved Score = %v, want 1", got)
	}
	if got := s.Weight(7); got != 1 {
		t.Fatalf("unobserved Weight = %v, want 1", got)
	}
}

func TestScoredSelectorDownWeightsAnomalousNorms(t *testing.T) {
	s := NewScoredSelector()
	round := honestRound(20, 1.0)
	// Client 3 submits a boosted (model-replacement style) update: 20x the
	// cohort's magnitude.
	round[3].DeltaNorm = 20
	s.ObserveRound(round)

	honest, bad := s.Score(0), s.Score(3)
	if bad >= honest {
		t.Fatalf("anomalous client score %v not below honest %v", bad, honest)
	}
	if s.Weight(3) >= s.Weight(0) {
		t.Fatalf("anomalous Weight %v not below honest %v", s.Weight(3), s.Weight(0))
	}
	// The steep score^4 falloff should attenuate the poisoner hard in the
	// very round it is first seen.
	if w := s.Weight(3); w > 0.2 {
		t.Fatalf("poisoner merge weight %v, want strongly attenuated (<= 0.2)", w)
	}
	// A minority deviant must not drag honest clients down: median reference.
	if honest < 0.9 {
		t.Fatalf("honest score %v dropped despite median reference", honest)
	}
}

func TestScoredSelectorDownWeightsFailures(t *testing.T) {
	s := NewScoredSelector()
	for r := 0; r < 5; r++ {
		round := honestRound(10, 1.0)
		round[2] = ClientOutcome{Client: 2, Failed: true}
		s.ObserveRound(round)
	}
	if s.Score(2) >= s.Score(0) {
		t.Fatalf("failing client score %v not below honest %v", s.Score(2), s.Score(0))
	}
}

func TestScoredSelectorRecovers(t *testing.T) {
	s := NewScoredSelector()
	round := honestRound(10, 1.0)
	round[1] = ClientOutcome{Client: 1, Failed: true}
	s.ObserveRound(round)
	low := s.Score(1)
	// Five clean rounds later the EWMA should have pulled it most of the way
	// back toward healthy.
	for r := 0; r < 5; r++ {
		s.ObserveRound(honestRound(10, 1.0))
	}
	if got := s.Score(1); got <= low || got < 0.9 {
		t.Fatalf("score after recovery = %v (was %v), want >= 0.9", got, low)
	}
}

func TestScoredSelectorPickDeterministic(t *testing.T) {
	s := NewScoredSelector()
	round := honestRound(50, 1.0)
	round[9].DeltaNorm = 30
	s.ObserveRound(round)

	eligible := make([]int, 50)
	for i := range eligible {
		eligible[i] = i
	}
	a := s.Pick(rand.New(rand.NewSource(11)), eligible, 12)
	b := s.Pick(rand.New(rand.NewSource(11)), eligible, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed picked different cohorts:\n%v\n%v", a, b)
	}
	if len(a) != 12 {
		t.Fatalf("picked %d clients, want 12", len(a))
	}
	seen := map[int]bool{}
	for _, k := range a {
		if k < 0 || k >= 50 {
			t.Fatalf("picked client %d outside eligible set", k)
		}
		if seen[k] {
			t.Fatalf("client %d picked twice", k)
		}
		seen[k] = true
	}
}

func TestScoredSelectorPickEdgeCases(t *testing.T) {
	s := NewScoredSelector()
	eligible := []int{3, 8, 15}
	if got := s.Pick(rand.New(rand.NewSource(1)), eligible, 5); !reflect.DeepEqual(got, eligible) {
		t.Fatalf("m >= len(eligible): got %v, want all of %v", got, eligible)
	}
	if got := s.Pick(rand.New(rand.NewSource(1)), eligible, 0); got != nil {
		t.Fatalf("m = 0: got %v, want nil", got)
	}
}

// TestScoredSelectorPickAvoidsBadClients: over repeated draws, a heavily
// down-weighted client should be selected far less often than healthy peers.
func TestScoredSelectorPickAvoidsBadClients(t *testing.T) {
	s := NewScoredSelector()
	for r := 0; r < 6; r++ {
		round := honestRound(20, 1.0)
		round[4] = ClientOutcome{Client: 4, Failed: true}
		s.ObserveRound(round)
	}
	eligible := make([]int, 20)
	for i := range eligible {
		eligible[i] = i
	}
	rng := rand.New(rand.NewSource(42))
	hits := 0
	const draws = 200
	for i := 0; i < draws; i++ {
		for _, k := range s.Pick(rng, eligible, 10) {
			if k == 4 {
				hits++
			}
		}
	}
	// A uniform selector would include client 4 in half the draws (~100).
	if hits > draws/4 {
		t.Fatalf("bad client selected %d/%d times, want heavily suppressed", hits, draws)
	}
}
