package compress

import (
	"fmt"
	"math"

	"mobiledl/internal/tensor"
)

// Quantized is a weight matrix represented by a shared codebook and
// per-entry code indices — the weight-sharing quantization of Deep
// Compression [28] (network quantization, Section III-B technique (1)).
// Zero entries (from pruning) are preserved exactly with a reserved code.
type Quantized struct {
	Rows, Cols int
	// Codebook holds the shared centroid values; index 0 is reserved for
	// exact zero when ZeroCode is true.
	Codebook []float64
	Codes    []uint16
	ZeroCode bool
}

// QuantizeKMeans clusters the non-zero entries of m into 2^bits - 1 shared
// values by 1-D k-means (Lloyd's algorithm with linearly spaced init, as in
// [28]), reserving one code for exact zeros. Lloyd's algorithm runs a fixed
// 20 iterations.
func QuantizeKMeans(m *tensor.Matrix, bits int) (*Quantized, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("%w: %d-bit quantization", ErrCompress, bits)
	}
	var nonzeros []float64
	for _, v := range m.Data() {
		if v != 0 {
			nonzeros = append(nonzeros, v)
		}
	}
	k := 1<<bits - 1
	if k > len(nonzeros) {
		k = len(nonzeros)
	}
	q := &Quantized{
		Rows:     m.Rows(),
		Cols:     m.Cols(),
		Codes:    make([]uint16, m.Size()),
		ZeroCode: true,
	}
	if k == 0 { // all-zero matrix
		q.Codebook = []float64{0}
		return q, nil
	}

	// Linear init over [min, max] (the scheme [28] found most robust).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range nonzeros {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	centroids := make([]float64, k)
	if k == 1 {
		centroids[0] = (lo + hi) / 2
	} else {
		for i := range centroids {
			centroids[i] = lo + (hi-lo)*float64(i)/float64(k-1)
		}
	}
	assign := make([]int, len(nonzeros))
	for it := 0; it < 20; it++ {
		// Assignment step.
		for i, v := range nonzeros {
			best, bestD := 0, math.Inf(1)
			for c, cv := range centroids {
				if d := math.Abs(v - cv); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
		// Update step.
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, c := range assign {
			sums[c] += nonzeros[i]
			counts[c]++
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c] / float64(counts[c])
			}
		}
	}

	// Codebook: index 0 = zero, 1..k = centroids.
	q.Codebook = make([]float64, k+1)
	copy(q.Codebook[1:], centroids)
	nzPos := 0
	for i, v := range m.Data() {
		if v == 0 {
			q.Codes[i] = 0
			continue
		}
		q.Codes[i] = uint16(assign[nzPos] + 1)
		nzPos++
	}
	return q, nil
}

// Dequantize reconstructs the dense matrix from the codebook.
func (q *Quantized) Dequantize() (*tensor.Matrix, error) {
	m := tensor.New(q.Rows, q.Cols)
	d := m.Data()
	for i, c := range q.Codes {
		if int(c) >= len(q.Codebook) {
			return nil, fmt.Errorf("%w: code %d outside codebook of %d", ErrCompress, c, len(q.Codebook))
		}
		d[i] = q.Codebook[c]
	}
	return m, nil
}
