//go:build !amd64 || amd64.v3

package tensor

// No vector kernel here: matMulRange is the only range kernel.
const hasAVX2 = false

func matMulRangeAVX2(dst, a, b *Matrix, i0, i1 int, acc bool) { matMulRange(dst, a, b, i0, i1, acc) }
