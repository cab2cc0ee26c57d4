package fedserve

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// ClientOutcome describes how one dispatched client update ended, the
// feedback signal a ClientSelector scores clients with.
type ClientOutcome struct {
	Client int
	Round  int
	// Failed marks a client-training error; every other update merges.
	Failed bool
	// DeltaNorm is the joint L2 norm of a merged update's parameter delta
	// (0 when the update failed).
	DeltaNorm float64
	Samples   int
	Loss      float64
}

// ClientSelector owns cohort selection and per-client merge weighting for a
// Coordinator. Pick draws the round's cohort from the eligible set (all
// randomness must come from rng, so runs stay reproducible per seed);
// ObserveRound feeds back one collected round's outcomes; Weight returns the
// multiplier applied to a client's contribution in the weighted merge
// (1 = neutral). Implementations must be safe for concurrent Weight/Scores
// reads; Pick and ObserveRound are only ever called from the coordinator's
// driver goroutine.
type ClientSelector interface {
	Pick(rng *rand.Rand, eligible []int, m int) []int
	ObserveRound(outcomes []ClientOutcome)
	Weight(k int) float64
}

// Scored-selector constants. The shape follows the cluster peer scorer
// (internal/cluster): EWMAs over recent observations rather than lifetime
// averages, so a client that recovers (transient network failure, one bad
// batch) climbs back quickly.
const (
	// selEWMAAlpha is the weight of the newest observation.
	selEWMAAlpha = 0.4
	// selNormWindow bounds the recent merged-update norms kept as the
	// robust (median) reference magnitude.
	selNormWindow = 256
	// selMinSelectWeight floors a client's selection weight so even a
	// zero-scored client retains a small re-probe probability (a jailed
	// client could otherwise never demonstrate recovery).
	selMinSelectWeight = 0.02
	// selMinMergeWeight floors the merge multiplier so a round whose whole
	// cohort is down-weighted still has positive total weight.
	selMinMergeWeight = 0.01
	// selWeightFail / selWeightNorm weight the two score components:
	// failure rate and update-magnitude anomaly.
	selWeightFail = 0.5
	selWeightNorm = 0.5
)

// clientScore is one client's EWMA state.
type clientScore struct {
	// failEWMA tracks failures (1) vs clean merges (0).
	failEWMA float64
	// devEWMA tracks the relative deviation of the client's update norm from
	// the cohort's median norm: honest clients sit near 0, boosted or
	// replaced models spike to (scale-1) and beyond.
	devEWMA  float64
	observed bool
}

// ScoredSelector is the reference ClientSelector: an EWMA reputation per
// observed client combining failure rate and update-norm anomaly (deviation
// from the median merged-update magnitude — the robust statistic a minority
// of adversaries cannot shift). Selection is score-weighted sampling without
// replacement, and the merge multiplier falls off steeply (score^4) so a
// flagged client's updates are attenuated the same round they are detected.
// Unobserved clients score neutral (1): a fresh population is sampled
// uniformly, exactly like the default selector.
type ScoredSelector struct {
	mu      sync.Mutex
	clients map[int]*clientScore
	// normWin is a ring of recent merged-update norms; its median is the
	// reference magnitude deviations are measured against.
	normWin  []float64
	normNext int
}

var _ ClientSelector = (*ScoredSelector)(nil)

// NewScoredSelector builds an empty selector; every client starts neutral.
func NewScoredSelector() *ScoredSelector {
	return &ScoredSelector{clients: make(map[int]*clientScore)}
}

// scoreLocked combines the components for client k; callers hold s.mu.
func (s *ScoredSelector) scoreLocked(k int) float64 {
	cs, ok := s.clients[k]
	if !ok || !cs.observed {
		return 1
	}
	normComp := math.Exp(-cs.devEWMA * cs.devEWMA)
	return selWeightFail*(1-cs.failEWMA) + selWeightNorm*normComp
}

// Score returns client k's current reputation in [0, 1] (1 = neutral or
// healthy). Safe from any goroutine.
func (s *ScoredSelector) Score(k int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scoreLocked(k)
}

// Scores snapshots every observed client's score.
func (s *ScoredSelector) Scores() map[int]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]float64, len(s.clients))
	for k := range s.clients {
		out[k] = s.scoreLocked(k)
	}
	return out
}

// Weight implements ClientSelector: the merge multiplier for client k.
func (s *ScoredSelector) Weight(k int) float64 {
	sc := s.Score(k)
	w := sc * sc * sc * sc
	if w < selMinMergeWeight {
		w = selMinMergeWeight
	}
	return w
}

// ObserveRound folds one collected round's outcomes into the per-client
// EWMAs. The round's merged norms join the reference window first, so the
// deviation each client is judged by includes its own round's median — a
// first-round poisoner is caught before any history exists.
func (s *ScoredSelector) ObserveRound(outcomes []ClientOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range outcomes {
		if !o.Failed {
			if len(s.normWin) < selNormWindow {
				s.normWin = append(s.normWin, o.DeltaNorm)
			} else {
				s.normWin[s.normNext] = o.DeltaNorm
				s.normNext = (s.normNext + 1) % selNormWindow
			}
		}
	}
	med := median(s.normWin)
	for _, o := range outcomes {
		cs, ok := s.clients[o.Client]
		if !ok {
			cs = &clientScore{}
			s.clients[o.Client] = cs
		}
		var fail, dev float64
		if o.Failed {
			fail = 1
		} else if med > 0 {
			dev = math.Abs(o.DeltaNorm-med) / med
		}
		if !cs.observed {
			cs.observed = true
			cs.failEWMA = fail
			cs.devEWMA = dev
			continue
		}
		cs.failEWMA = selEWMAAlpha*fail + (1-selEWMAAlpha)*cs.failEWMA
		// Failed updates carry no norm evidence; leave devEWMA.
		if !o.Failed {
			cs.devEWMA = selEWMAAlpha*dev + (1-selEWMAAlpha)*cs.devEWMA
		}
	}
}

// median of a sample (0 when empty); does not mutate its argument.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Pick implements ClientSelector: score-weighted sampling of m clients
// without replacement (Efraimidis-Spirakis A-Res: each candidate draws
// u^(1/w) and the m largest keys win). One rng draw per eligible client in
// slice order, so a fixed seed reproduces the cohort at any worker count.
func (s *ScoredSelector) Pick(rng *rand.Rand, eligible []int, m int) []int {
	if m >= len(eligible) {
		return append([]int(nil), eligible...)
	}
	if m <= 0 {
		return nil
	}
	h := make(keyHeap, 0, m)
	s.mu.Lock()
	for _, k := range eligible {
		// Same steep score^4 falloff as the merge weight, floored so a
		// flagged client keeps a small re-probe probability.
		sc := s.scoreLocked(k)
		w := sc * sc * sc * sc
		if w < selMinSelectWeight {
			w = selMinSelectWeight
		}
		key := math.Pow(rng.Float64(), 1/w)
		if len(h) < m {
			heap.Push(&h, keyed{k: k, key: key})
			continue
		}
		if keyedLess(h[0], keyed{k: k, key: key}) {
			h[0] = keyed{k: k, key: key}
			heap.Fix(&h, 0)
		}
	}
	s.mu.Unlock()
	out := make([]int, len(h))
	for i, kw := range h {
		out[i] = kw.k
	}
	return out
}

// keyed pairs a client with its sampling key; keyHeap is a min-heap on the
// key so the root is always the weakest of the current winners.
type keyed struct {
	k   int
	key float64
}

// keyedLess orders by key, with the client index as a deterministic
// tie-break.
func keyedLess(a, b keyed) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.k < b.k
}

type keyHeap []keyed

func (h keyHeap) Len() int           { return len(h) }
func (h keyHeap) Less(i, j int) bool { return keyedLess(h[i], h[j]) }
func (h keyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *keyHeap) Push(x any)        { *h = append(*h, x.(keyed)) }
func (h *keyHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
