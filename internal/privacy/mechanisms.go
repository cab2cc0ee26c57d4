package privacy

import (
	"errors"
	"fmt"
	"math/rand"

	"mobiledl/internal/tensor"
)

// ErrBudget reports an invalid privacy parameter.
var ErrBudget = errors.New("privacy: invalid privacy parameter")

// AddGaussian adds N(0, sigma²) noise to every element of m in place.
func AddGaussian(rng *rand.Rand, m *tensor.Matrix, sigma float64) {
	d := m.Data()
	for i := range d {
		d[i] += sigma * rng.NormFloat64()
	}
}

// ClipL2 rescales m in place so its Frobenius norm is at most bound,
// returning the pre-clip norm: the bounding step of the split-inference
// perturbation (Section III-A).
func ClipL2(m *tensor.Matrix, bound float64) (float64, error) {
	if bound <= 0 {
		return 0, fmt.Errorf("%w: clip bound %v", ErrBudget, bound)
	}
	norm := m.FrobeniusNorm()
	if norm > bound {
		m.ScaleInPlace(bound / norm)
	}
	return norm, nil
}

// Nullification zeroes each element of m independently with probability
// rate, the input-nullification perturbation of the ARDEN split-inference
// framework [30] (Section III-A). It returns the number of nullified cells.
func Nullification(rng *rand.Rand, m *tensor.Matrix, rate float64) (int, error) {
	if rate < 0 || rate > 1 {
		return 0, fmt.Errorf("%w: nullification rate %v", ErrBudget, rate)
	}
	d := m.Data()
	count := 0
	for i := range d {
		if rng.Float64() < rate {
			d[i] = 0
			count++
		}
	}
	return count, nil
}
