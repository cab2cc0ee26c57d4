package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// This file holds the destination-passing ("Into") kernels: every variant
// writes its result into a caller-supplied matrix and allocates nothing, so
// hot paths can reuse scratch from a Pool across calls. Conventions:
//
//   - dst must already have the result shape; a shape mismatch is an error,
//     never a silent reallocation.
//   - Elementwise kernels (AddInto, MulInto, ApplyInto, AddRowVectorInto,
//     SoftmaxInto) allow dst to alias an operand. Matmul and transpose
//     kernels require dst to be distinct from both operands.
//   - The matmul family parallelizes across row blocks when the
//     multiply-accumulate count reaches parallelMinWork and more than one
//     CPU is available; below that everything runs on the calling goroutine,
//     so mobile-scale shapes never pay goroutine overhead.

// parallelMinWork is the multiply-accumulate count (rows * inner * cols)
// from which the matmul kernels fan out across row blocks and MatMulInto
// takes the vector range kernel where there is one. 2^20 keeps the serving
// substrate's mobile-scale shapes (64x128 @ 128x64 = 2^19 MACs) sequential
// and portable while letting 256x256 and larger matmuls use every core.
const parallelMinWork = 1 << 20

// matmulWorkers reports how many goroutines a kernel over `rows` rows with
// `work` total MACs should use (1 = run inline).
func matmulWorkers(rows, work int) int {
	if work < parallelMinWork {
		return 1
	}
	p := runtime.GOMAXPROCS(0)
	if p > rows {
		p = rows
	}
	if p < 1 {
		p = 1
	}
	return p
}

// parallelRows splits [0, rows) into contiguous blocks, one per worker, and
// runs fn on each block concurrently. workers must be >= 2.
func parallelRows(rows, workers int, fn func(i0, i1 int)) {
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for i0 := 0; i0 < rows; i0 += chunk {
		i1 := i0 + chunk
		if i1 > rows {
			i1 = rows
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

func checkDstShape(op string, dst *Matrix, rows, cols int) error {
	if dst.rows != rows || dst.cols != cols {
		return fmt.Errorf("%w: %s dst %dx%d, want %dx%d", ErrShape, op, dst.rows, dst.cols, rows, cols)
	}
	return nil
}

// MatMulInto computes dst = a @ b with no allocation. dst must be
// a.Rows() x b.Cols() and must not alias a or b.
func MatMulInto(dst, a, b *Matrix) error {
	return matMulInto(dst, a, b, false)
}

// MatMulAccInto computes dst += a @ b with no allocation — the accumulate
// variant fused kernels (GRU gates, multi-term gradients) build on.
func MatMulAccInto(dst, a, b *Matrix) error {
	return matMulInto(dst, a, b, true)
}

func matMulInto(dst, a, b *Matrix, acc bool) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: MatMul %dx%d @ %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDstShape("MatMul", dst, a.rows, b.cols); err != nil {
		return err
	}
	work := a.rows * a.cols * b.cols
	kernel := matMulRange
	if hasAVX2 && work >= parallelMinWork {
		kernel = matMulRangeAVX2
	}
	if w := matmulWorkers(a.rows, work); w > 1 {
		parallelRows(a.rows, w, func(i0, i1 int) { kernel(dst, a, b, i0, i1, acc) })
	} else {
		kernel(dst, a, b, 0, a.rows, acc)
	}
	return nil
}

// matMulRange is the portable range kernel, and the reference the vector
// kernel is tested against: the dst rows [i0, i1) of dst = a @ b (+= when
// acc). The inner kernel is register-tiled 2x4 (two dst rows by four k
// steps): each loaded panel of four b rows feeds two output rows, halving b
// traffic, and each pass over a dst row folds in four b rows, quartering
// dst-row traffic versus the naive ikj loop — while every stream stays
// contiguous.
func matMulRange(dst, a, b *Matrix, i0, i1 int, acc bool) {
	n, inner := b.cols, a.cols
	bd := b.data
	i := i0
	for ; i+2 <= i1; i += 2 {
		arow0 := a.data[i*inner : (i+1)*inner]
		arow1 := a.data[(i+1)*inner : (i+2)*inner]
		orow0 := dst.data[i*n : (i+1)*n]
		orow1 := dst.data[(i+1)*n : (i+2)*n]
		if !acc {
			for j := range orow0 {
				orow0[j] = 0
			}
			for j := range orow1 {
				orow1[j] = 0
			}
		}
		k := 0
		for ; k+4 <= inner; k += 4 {
			a00, a01, a02, a03 := arow0[k], arow0[k+1], arow0[k+2], arow0[k+3]
			a10, a11, a12, a13 := arow1[k], arow1[k+1], arow1[k+2], arow1[k+3]
			b0 := bd[k*n : k*n+n]
			b1 := bd[(k+1)*n : (k+1)*n+n]
			b2 := bd[(k+2)*n : (k+2)*n+n]
			b3 := bd[(k+3)*n : (k+3)*n+n]
			for j, v := range b0 {
				v1, v2, v3 := b1[j], b2[j], b3[j]
				orow0[j] += a00*v + a01*v1 + a02*v2 + a03*v3
				orow1[j] += a10*v + a11*v1 + a12*v2 + a13*v3
			}
		}
		for ; k < inner; k++ {
			av0, av1 := arow0[k], arow1[k]
			for j, v := range bd[k*n : k*n+n] {
				orow0[j] += av0 * v
				orow1[j] += av1 * v
			}
		}
	}
	for ; i < i1; i++ {
		arow := a.data[i*inner : (i+1)*inner]
		orow := dst.data[i*n : (i+1)*n]
		if !acc {
			for j := range orow {
				orow[j] = 0
			}
		}
		k := 0
		for ; k+4 <= inner; k += 4 {
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			b0 := bd[k*n : k*n+n]
			b1 := bd[(k+1)*n : (k+1)*n+n]
			b2 := bd[(k+2)*n : (k+2)*n+n]
			b3 := bd[(k+3)*n : (k+3)*n+n]
			for j, v := range b0 {
				orow[j] += a0*v + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < inner; k++ {
			av := arow[k]
			for j, v := range bd[k*n : k*n+n] {
				orow[j] += av * v
			}
		}
	}
}

// MatMulTInto computes dst = a @ b^T without materializing the transpose.
// dst must be a.Rows() x b.Rows() and must not alias a or b.
func MatMulTInto(dst, a, b *Matrix) error {
	return matMulTInto(dst, a, b, false)
}

// MatMulTAccInto computes dst += a @ b^T with no allocation.
func MatMulTAccInto(dst, a, b *Matrix) error {
	return matMulTInto(dst, a, b, true)
}

func matMulTInto(dst, a, b *Matrix, acc bool) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: MatMulT %dx%d @ (%dx%d)^T", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDstShape("MatMulT", dst, a.rows, b.rows); err != nil {
		return err
	}
	if w := matmulWorkers(a.rows, a.rows*a.cols*b.rows); w > 1 {
		parallelRows(a.rows, w, func(i0, i1 int) { matMulTRange(dst, a, b, i0, i1, acc) })
	} else {
		matMulTRange(dst, a, b, 0, a.rows, acc)
	}
	return nil
}

// matMulTRange runs dst rows [i0, i1) of dst = a @ b^T as dot products with
// four independent accumulators, so the FP adds pipeline instead of
// serializing on one dependency chain.
func matMulTRange(dst, a, b *Matrix, i0, i1 int, acc bool) {
	inner := a.cols
	for i := i0; i < i1; i++ {
		arow := a.data[i*inner : (i+1)*inner]
		orow := dst.data[i*b.rows : (i+1)*b.rows]
		for j := 0; j < b.rows; j++ {
			brow := b.data[j*inner : (j+1)*inner]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= inner; k += 4 {
				s0 += arow[k] * brow[k]
				s1 += arow[k+1] * brow[k+1]
				s2 += arow[k+2] * brow[k+2]
				s3 += arow[k+3] * brow[k+3]
			}
			for ; k < inner; k++ {
				s0 += arow[k] * brow[k]
			}
			if acc {
				orow[j] += s0 + s1 + s2 + s3
			} else {
				orow[j] = s0 + s1 + s2 + s3
			}
		}
	}
}

// TMatMulInto computes dst = a^T @ b without materializing the transpose.
// dst must be a.Cols() x b.Cols() and must not alias a or b.
func TMatMulInto(dst, a, b *Matrix) error {
	if a.rows != b.rows {
		return fmt.Errorf("%w: TMatMul (%dx%d)^T @ %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if err := checkDstShape("TMatMul", dst, a.cols, b.cols); err != nil {
		return err
	}
	if w := matmulWorkers(a.cols, a.rows*a.cols*b.cols); w > 1 {
		parallelRows(a.cols, w, func(i0, i1 int) { tMatMulRange(dst, a, b, i0, i1) })
	} else {
		tMatMulRange(dst, a, b, 0, a.cols)
	}
	return nil
}

// tMatMulRange computes dst rows [c0, c1) of dst = a^T @ b (dst row i is
// column i of a dotted against b). Keeping k outermost streams both a and b
// row-major; restricting i to the block keeps each worker's writes disjoint.
func tMatMulRange(dst, a, b *Matrix, c0, c1 int) {
	n := b.cols
	for i := c0; i < c1; i++ {
		orow := dst.data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
	}
	for k := 0; k < a.rows; k++ {
		arow := a.data[k*a.cols : (k+1)*a.cols]
		brow := b.data[k*n : (k+1)*n]
		for i := c0; i < c1; i++ {
			av := arow[i]
			orow := dst.data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// SubInto computes dst = a - b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Matrix) error {
	if err := sameShape("SubInto", a, b); err != nil {
		return err
	}
	if err := checkDstShape("SubInto", dst, a.rows, a.cols); err != nil {
		return err
	}
	ad, bd2 := a.data, b.data
	for i := range dst.data {
		dst.data[i] = ad[i] - bd2[i]
	}
	return nil
}

// MulInto computes the elementwise product dst = a ⊙ b. dst may alias a or b.
func MulInto(dst, a, b *Matrix) error {
	if err := sameShape("MulInto", a, b); err != nil {
		return err
	}
	if err := checkDstShape("MulInto", dst, a.rows, a.cols); err != nil {
		return err
	}
	ad, bd2 := a.data, b.data
	for i := range dst.data {
		dst.data[i] = ad[i] * bd2[i]
	}
	return nil
}

// AddRowVectorInto computes dst = a + v broadcast across rows (v is
// 1 x cols). dst may alias a.
func AddRowVectorInto(dst, a, v *Matrix) error {
	if v.rows != 1 || v.cols != a.cols {
		return fmt.Errorf("%w: AddRowVector %dx%d + %dx%d", ErrShape, a.rows, a.cols, v.rows, v.cols)
	}
	if err := checkDstShape("AddRowVector", dst, a.rows, a.cols); err != nil {
		return err
	}
	vd := v.data
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j, bv := range vd {
			drow[j] = arow[j] + bv
		}
	}
	return nil
}

// SumRowsInto writes the column-wise sum of a into dst (1 x cols).
func SumRowsInto(dst, a *Matrix) error {
	if err := checkDstShape("SumRows", dst, 1, a.cols); err != nil {
		return err
	}
	od := dst.data
	for j := range od {
		od[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		for j, v := range a.Row(i) {
			od[j] += v
		}
	}
	return nil
}

// SoftmaxInto computes the row-wise stable softmax of a into dst. dst may
// alias a.
func SoftmaxInto(dst, a *Matrix) error {
	if err := checkDstShape("Softmax", dst, a.rows, a.cols); err != nil {
		return err
	}
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		orow := dst.Row(i)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - max)
			orow[j] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return nil
}

// SelectRowsInto gathers the given row indices of m into dst
// (len(idx) x m.Cols()).
func (m *Matrix) SelectRowsInto(dst *Matrix, idx []int) error {
	if err := checkDstShape("SelectRows", dst, len(idx), m.cols); err != nil {
		return err
	}
	for i, r := range idx {
		if r < 0 || r >= m.rows {
			return fmt.Errorf("%w: SelectRows index %d of %d rows", ErrShape, r, m.rows)
		}
		copy(dst.Row(i), m.Row(r))
	}
	return nil
}
