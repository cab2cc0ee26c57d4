package compress

import (
	"fmt"

	"mobiledl/internal/tensor"
)

// PruneMatrix zeroes the smallest-magnitude entries of m in place until the
// requested fraction is zero (Han et al. [13]: "learning only the important
// connections"). It returns the realized sparsity.
func PruneMatrix(m *tensor.Matrix, sparsity float64) (float64, error) {
	if sparsity < 0 || sparsity >= 1 {
		return 0, fmt.Errorf("%w: sparsity %v", ErrCompress, sparsity)
	}
	if sparsity == 0 {
		return Sparsity(m), nil
	}
	threshold := absThresholdForSparsity(m, sparsity)
	d := m.Data()
	for i, v := range d {
		if v < 0 {
			if -v <= threshold {
				d[i] = 0
			}
		} else if v <= threshold {
			d[i] = 0
		}
	}
	return Sparsity(m), nil
}
