// Package tensor implements the dense linear-algebra substrate used by every
// other package in this repository: row-major float64 matrices with the
// elementwise, reduction and BLAS-like operations a small neural-network
// stack needs, plus a one-sided Jacobi SVD used for low-rank factorization.
//
// Hot paths use the destination-passing kernels (MatMulInto and friends in
// ops_into.go), which write into caller-supplied matrices with zero
// allocation, together with Pool / Get / Put for recycled scratch. One work
// threshold (parallelMinWork, 2^20 multiply-accumulates) makes two decisions
// for the matmul family. Below it a product runs on the calling goroutine
// with the portable register-tiled kernel, matMulRange. From it up, row
// blocks fan out across GOMAXPROCS goroutines, and MatMulInto/MatMulAccInto
// run the AVX2 range kernel of matmul_amd64.go where the CPU and the OS have
// it. That kernel equals matMulRange bit for bit — no FMA, each output
// element's k terms folded in ascending order and in the same association —
// so which kernel ran, on how many goroutines, never shows in a result. See
// the module-level doc.go "Performance conventions" for why the vector
// kernel is gated and for the ownership rules.
//
// The package is deliberately self-contained (stdlib only) because the paper
// assumes a deep-learning substrate (Keras/TensorFlow) that is not available
// in a pure-Go, offline environment; see DESIGN.md for the substitution note.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) by operations whose operand shapes are
// incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Matrices are mutable; operations
// document whether they allocate a new result or write in place.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized matrix with the given dimensions.
// It panics only on negative dimensions, which indicates programmer error.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromSlice builds a rows x cols matrix backed by a copy of data
// (len(data) must equal rows*cols).
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: FromSlice got %d values for %dx%d", ErrShape, len(data), rows, cols)
	}
	m := New(rows, cols)
	copy(m.data, data)
	return m, nil
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: FromRows row %d has %d values, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// RowVector returns a 1 x len(v) matrix copying v.
func RowVector(v []float64) *Matrix {
	m := New(1, len(v))
	copy(m.data, v)
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Size returns the total number of elements.
func (m *Matrix) Size() int { return m.rows * m.cols }

// Data returns the underlying row-major storage. The slice aliases the
// matrix; mutating it mutates the matrix. It is exposed for hot paths
// (optimizers, serialization) that need direct access.
func (m *Matrix) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// RowMatrix returns row i as a 1 x cols matrix view sharing storage with m:
// mutating the view mutates m. It lets per-row transforms (clipping, noise)
// run without the slice-out-and-copy-back round trip. Views must never be
// handed to a Pool.
func (m *Matrix) RowMatrix(i int) *Matrix {
	return &Matrix{rows: 1, cols: m.cols, data: m.Row(i)}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: CopyFrom %dx%d <- %dx%d", ErrShape, m.rows, m.cols, src.rows, src.cols)
	}
	copy(m.data, src.data)
	return nil
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Reshape returns a new matrix header with the given dimensions sharing the
// same backing storage. rows*cols must equal the current size.
func (m *Matrix) Reshape(rows, cols int) (*Matrix, error) {
	if rows*cols != m.rows*m.cols {
		return nil, fmt.Errorf("%w: Reshape %dx%d -> %dx%d", ErrShape, m.rows, m.cols, rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: m.data}, nil
}

// T returns the transpose as a newly allocated matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Equal reports whether m and other have identical shape and elements
// within tolerance tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging (rows capped at 8).
func (m *Matrix) String() string {
	const maxRows = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxRows; i++ {
		fmt.Fprintf(&b, "%v", m.Row(i))
		if i != m.rows-1 {
			b.WriteString("; ")
		}
	}
	if m.rows > maxRows {
		b.WriteString("...")
	}
	b.WriteString("]")
	return b.String()
}
