//go:build !amd64.v3

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two results are the same float64 bit for bit; two
// NaNs count as the same whatever their payloads (see matmul_amd64.go).
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// TestAVX2KernelBitExact runs the vector and the portable range kernel on
// random shapes — one to nine rows, every %4 remainder of inner and cols,
// inner past one panel, acc on and off, a dirty dst, row ranges that start
// mid-matrix — and requires the same bits everywhere, including the rows
// outside [i0, i1), which neither may touch. A sprinkle of zeros, infinities,
// NaNs and denormals checks that the special cases round the same way too.
func TestAVX2KernelBitExact(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine")
	}
	rng := rand.New(rand.NewSource(14))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -3e-310}
	fill := func(m *Matrix, odd bool) {
		for i := range m.data {
			m.data[i] = rng.NormFloat64()
			if odd && rng.Intn(50) == 0 {
				m.data[i] = special[rng.Intn(len(special))]
			}
		}
	}
	for round := 0; round < 400; round++ {
		rows := 1 + rng.Intn(9)
		inner := 1 + rng.Intn(40)
		if round%5 == 0 {
			inner = panelK - 3 + rng.Intn(2*panelK+8) // cross one or two panel boundaries
		}
		cols := 1 + rng.Intn(37)
		i0 := rng.Intn(rows)
		i1 := i0 + 1 + rng.Intn(rows-i0)
		acc := rng.Intn(2) == 0
		odd := round%4 == 0

		a, b, want := New(rows, inner), New(inner, cols), New(rows, cols)
		fill(a, odd)
		fill(b, odd)
		fill(want, false) // dirty: !acc must overwrite it, acc must add to it
		got := want.Clone()

		matMulRange(want, a, b, i0, i1, acc)
		matMulRangeAVX2(got, a, b, i0, i1, acc)
		for i, w := range want.data {
			if !sameBits(got.data[i], w) {
				t.Fatalf("round %d: %dx%dx%d rows [%d,%d) acc=%v: dst[%d][%d] = %x, portable kernel %x",
					round, rows, inner, cols, i0, i1, acc, i/cols, i%cols,
					math.Float64bits(got.data[i]), math.Float64bits(w))
			}
		}
	}
}
