//go:build !amd64.v3

package tensor

// The AVX2 range kernel (matmul_amd64.s) computes exactly what matMulRange
// computes, four columns at a time. Bit equality with the portable kernel is
// the contract, and it rests on three things:
//
//   - no FMA: every product and every sum is rounded, in the association
//     order of matMulRange's `o[j] += a0*v0 + a1*v1 + a2*v2 + a3*v3`;
//   - each output element folds its k terms in ascending order, in the same
//     groups of four starting at multiples of four, then the k%4 tail;
//   - the n%4 column tail and the k%4 row tail run the portable expressions.
//
// (A NaN comes out a NaN, but which payload is not part of the contract.)
// The file set is excluded under GOAMD64=v3, where the compiler fuses the
// portable kernel's multiply-adds and the two would no longer agree.

// hasAVX2 is probed once: CPUID says AVX2 and the OS saves the YMM state.
var hasAVX2 = cpuHasAVX2()

// panelK is how many rows of b one pass folds into every row of the block
// before moving on: at 1024 columns that is 512 KB of b, which stays in L2
// while the block's row pairs reuse it. It must be a multiple of four so
// panel boundaries fall on the portable kernel's group boundaries.
const panelK = 64

func cpuHasAVX2() bool

//go:noescape
func panelAVX2(o0, o1, a0, a1, b *float64, cols, groups, ldb int)

// matMulRangeAVX2 is matMulRange on the vector unit: dst rows [i0, i1) of
// dst = a @ b (+= when acc), equal to it bit for bit.
func matMulRangeAVX2(dst, a, b *Matrix, i0, i1 int, acc bool) {
	n, inner := b.cols, a.cols
	if !acc {
		clear(dst.data[i0*n : i1*n])
	}
	n4 := n &^ 3
	for k0 := 0; k0 < inner; k0 += panelK {
		k1 := min(k0+panelK, inner)
		groups := (k1 - k0) / 4
		for i := i0; i < i1; i += 2 {
			pair := min(i+2, i1) // i+1 when the block's last row has no partner
			if n4 > 0 && groups > 0 {
				var o1, a1 *float64
				if pair == i+2 {
					o1, a1 = &dst.data[(i+1)*n], &a.data[(i+1)*inner+k0]
				}
				panelAVX2(&dst.data[i*n], o1, &a.data[i*inner+k0], a1, &b.data[k0*n], n4, groups, n)
			}
			for r := i; r < pair; r++ {
				matMulTails(dst.data[r*n:(r+1)*n], a.data[r*inner:(r+1)*inner], b.data, n4, k0, k1)
			}
		}
	}
}

// matMulTails finishes one output row over b rows [k0, k1) in scalar code:
// columns [n4, n) of the whole groups of four, then every column of the
// k%4 rows left over — what the assembly leaves, in the portable kernel's
// own expressions.
func matMulTails(orow, arow, bd []float64, n4, k0, k1 int) {
	n := len(orow)
	kt := k1 - (k1-k0)%4
	if n4 < n {
		for k := k0; k < kt; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			for j := n4; j < n; j++ {
				orow[j] += a0*bd[k*n+j] + a1*bd[(k+1)*n+j] + a2*bd[(k+2)*n+j] + a3*bd[(k+3)*n+j]
			}
		}
	}
	for k := kt; k < k1; k++ {
		av := arow[k]
		for j, v := range bd[k*n : k*n+n] {
			orow[j] += av * v
		}
	}
}
