package tensor

import (
	"fmt"
	"math"
)

// MatMul computes a @ b into a newly allocated matrix. It shares the
// register-blocked, threshold-parallel kernel with MatMulInto; callers on a
// hot path should preallocate (or pool) the destination and use the Into
// variant directly. The kernel is branch-free over the operand values —
// sparse speedups belong to compress.CSR, not here.
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: MatMul %dx%d @ %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.cols)
	if err := MatMulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MatMulT computes a @ b^T without materializing the transpose.
func MatMulT(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.cols {
		return nil, fmt.Errorf("%w: MatMulT %dx%d @ (%dx%d)^T", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.rows, b.rows)
	if err := MatMulTInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// TMatMul computes a^T @ b without materializing the transpose.
func TMatMul(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows {
		return nil, fmt.Errorf("%w: TMatMul (%dx%d)^T @ %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := New(a.cols, b.cols)
	if err := TMatMulInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

func sameShape(op string, a, b *Matrix) error {
	if a.rows != b.rows || a.cols != b.cols {
		return fmt.Errorf("%w: %s %dx%d vs %dx%d", ErrShape, op, a.rows, a.cols, b.rows, b.cols)
	}
	return nil
}

// Sub returns a - b.
func Sub(a, b *Matrix) (*Matrix, error) {
	if err := sameShape("Sub", a, b); err != nil {
		return nil, err
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// AddInPlace computes a += b in place.
func AddInPlace(a, b *Matrix) error {
	if err := sameShape("AddInPlace", a, b); err != nil {
		return err
	}
	for i, v := range b.data {
		a.data[i] += v
	}
	return nil
}

// AxpyInPlace computes a += alpha*b in place.
func AxpyInPlace(a *Matrix, alpha float64, b *Matrix) error {
	if err := sameShape("AxpyInPlace", a, b); err != nil {
		return err
	}
	for i, v := range b.data {
		a.data[i] += alpha * v
	}
	return nil
}

// Scale returns alpha * a.
func Scale(a *Matrix, alpha float64) *Matrix {
	out := a.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// ScaleInPlace multiplies every element by alpha in place.
func (m *Matrix) ScaleInPlace(alpha float64) {
	for i := range m.data {
		m.data[i] *= alpha
	}
}

// Apply returns a new matrix with f applied elementwise.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := a.Clone()
	for i, v := range out.data {
		out.data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f elementwise in place.
func (m *Matrix) ApplyInPlace(f func(float64) float64) {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// FrobeniusNorm returns the Frobenius (entrywise L2) norm.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMaxRow returns the index of the maximum element in row i.
func (m *Matrix) ArgMaxRow(i int) int {
	row := m.Row(i)
	best, bestV := 0, math.Inf(-1)
	for j, v := range row {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

// Softmax returns the row-wise softmax of a, computed stably.
func Softmax(a *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	_ = SoftmaxInto(out, a) // shapes match by construction
	return out
}

// HStack concatenates matrices horizontally (equal row counts).
func HStack(ms ...*Matrix) (*Matrix, error) {
	if len(ms) == 0 {
		return New(0, 0), nil
	}
	rows := ms[0].rows
	cols := 0
	for _, m := range ms {
		if m.rows != rows {
			return nil, fmt.Errorf("%w: HStack rows %d vs %d", ErrShape, m.rows, rows)
		}
		cols += m.cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		orow := out.Row(i)
		off := 0
		for _, m := range ms {
			copy(orow[off:off+m.cols], m.Row(i))
			off += m.cols
		}
	}
	return out, nil
}

// VStack concatenates matrices vertically (equal column counts).
func VStack(ms ...*Matrix) (*Matrix, error) {
	if len(ms) == 0 {
		return New(0, 0), nil
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			return nil, fmt.Errorf("%w: VStack cols %d vs %d", ErrShape, m.cols, cols)
		}
		rows += m.rows
	}
	out := New(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.data[off:off+len(m.data)], m.data)
		off += len(m.data)
	}
	return out, nil
}

// SliceCols returns columns [from, to) as a new matrix.
func (m *Matrix) SliceCols(from, to int) (*Matrix, error) {
	if from < 0 || to > m.cols || from > to {
		return nil, fmt.Errorf("%w: SliceCols [%d,%d) of %d cols", ErrShape, from, to, m.cols)
	}
	out := New(m.rows, to-from)
	for i := 0; i < m.rows; i++ {
		copy(out.Row(i), m.Row(i)[from:to])
	}
	return out, nil
}

// SliceRows returns rows [from, to) as a new matrix.
func (m *Matrix) SliceRows(from, to int) (*Matrix, error) {
	if from < 0 || to > m.rows || from > to {
		return nil, fmt.Errorf("%w: SliceRows [%d,%d) of %d rows", ErrShape, from, to, m.rows)
	}
	out := New(to-from, m.cols)
	copy(out.data, m.data[from*m.cols:to*m.cols])
	return out, nil
}

// SelectRows gathers the given row indices into a new matrix.
func (m *Matrix) SelectRows(idx []int) (*Matrix, error) {
	out := New(len(idx), m.cols)
	if err := m.SelectRowsInto(out, idx); err != nil {
		return nil, err
	}
	return out, nil
}
