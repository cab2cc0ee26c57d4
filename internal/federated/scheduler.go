package federated

import (
	"fmt"
	"math/rand"
)

// DeviceState is the simulated condition of one mobile device at a round.
type DeviceState struct {
	Idle     bool
	Charging bool
	OnWiFi   bool
}

// Eligible reports whether the device satisfies Google's federated-training
// participation constraint: "training happens only when the mobile device is
// idle, plugged in, and on a free wireless connection" (Section II-B).
func (s DeviceState) Eligible() bool { return s.Idle && s.Charging && s.OnWiFi }

// Scheduler simulates per-device availability across rounds. Each device's
// state re-randomizes every round with the configured marginal
// probabilities, which models the diurnal churn real federated systems see.
type Scheduler struct {
	rng        *rand.Rand
	probIdle   float64
	probCharge float64
	probWiFi   float64
	states     []DeviceState
}

// NewScheduler creates a scheduler for n devices. The probabilities are the
// per-round marginals of each eligibility condition.
func NewScheduler(rng *rand.Rand, n int, probIdle, probCharge, probWiFi float64) (*Scheduler, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d devices", ErrConfig, n)
	}
	for _, p := range []float64{probIdle, probCharge, probWiFi} {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("%w: probability %v", ErrConfig, p)
		}
	}
	s := &Scheduler{
		rng:        rng,
		probIdle:   probIdle,
		probCharge: probCharge,
		probWiFi:   probWiFi,
		states:     make([]DeviceState, n),
	}
	s.Advance()
	return s, nil
}

// Eligible reports whether device k may participate this round.
func (s *Scheduler) Eligible(k int) bool {
	if k < 0 || k >= len(s.states) {
		return false
	}
	return s.states[k].Eligible()
}

// Advance re-randomizes all device states for the next round.
func (s *Scheduler) Advance() {
	for i := range s.states {
		s.states[i] = DeviceState{
			Idle:     s.rng.Float64() < s.probIdle,
			Charging: s.rng.Float64() < s.probCharge,
			OnWiFi:   s.rng.Float64() < s.probWiFi,
		}
	}
}
