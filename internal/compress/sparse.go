// Package compress implements the model compression and acceleration
// toolbox of Section III-B: magnitude-based weight pruning with a CSR sparse
// format, k-means weight-sharing and linear quantization, Huffman coding of
// quantized indices (together: the Deep Compression pipeline of Han et al.
// [28]), truncated-SVD low-rank factorization of dense layers [36], and
// knowledge distillation [37]. Compression ratios are measured on real
// encoded bytes, not parameter counts.
package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mobiledl/internal/tensor"
)

// ErrCompress reports invalid compression parameters or corrupt encodings.
var ErrCompress = errors.New("compress: invalid input")

// CSR is a compressed sparse row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Values     []float64
}

// ToCSR converts a dense matrix, keeping entries with |v| > 0.
func ToCSR(m *tensor.Matrix) *CSR {
	c := &CSR{
		Rows:   m.Rows(),
		Cols:   m.Cols(),
		RowPtr: make([]int32, m.Rows()+1),
	}
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		for j, v := range row {
			if v != 0 {
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Values = append(c.Values, v)
			}
		}
		c.RowPtr[i+1] = int32(len(c.Values))
	}
	return c
}

// NNZ returns the number of stored non-zeros.
func (c *CSR) NNZ() int { return len(c.Values) }

// MatMul computes x @ W where W is this CSR matrix (rows = in, cols = out).
// x is batch x in.
//
//nolint:deadexport // test seam: the module root's BenchmarkSparseMatMul
func (c *CSR) MatMul(x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Cols() != c.Rows {
		return nil, fmt.Errorf("%w: sparse matmul %dx%d @ %dx%d",
			tensor.ErrShape, x.Rows(), x.Cols(), c.Rows, c.Cols)
	}
	out := tensor.New(x.Rows(), c.Cols)
	for b := 0; b < x.Rows(); b++ {
		xrow := x.Row(b)
		orow := out.Row(b)
		for i := 0; i < c.Rows; i++ {
			xv := xrow[i]
			if xv == 0 {
				continue
			}
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				orow[c.ColIdx[p]] += xv * c.Values[p]
			}
		}
	}
	return out, nil
}

// Encode serializes the CSR matrix to a compact binary form.
func (c *CSR) Encode() ([]byte, error) {
	var buf bytes.Buffer
	w := func(v any) error { return binary.Write(&buf, binary.LittleEndian, v) }
	if err := w(int32(c.Rows)); err != nil {
		return nil, err
	}
	if err := w(int32(c.Cols)); err != nil {
		return nil, err
	}
	if err := w(int32(len(c.Values))); err != nil {
		return nil, err
	}
	if err := w(c.RowPtr); err != nil {
		return nil, err
	}
	if err := w(c.ColIdx); err != nil {
		return nil, err
	}
	if err := w(c.Values); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCSR parses a CSR encoding produced by Encode. The header's counts
// must account for exactly len(b) bytes before anything is allocated, and
// the row pointers (0 first, non-decreasing, nnz last) and column indices
// (within cols) are validated, so a hostile header can neither panic nor
// provoke an allocation larger than its input.
//
//nolint:deadexport // the ROADMAP item "Execute compressed" loads CSR weights from disk
func DecodeCSR(b []byte) (*CSR, error) {
	le := binary.LittleEndian
	if len(b) < 12 {
		return nil, fmt.Errorf("%w: csr header: %d bytes", ErrCompress, len(b))
	}
	rows, cols, nnz := int64(int32(le.Uint32(b))), int64(int32(le.Uint32(b[4:]))), int64(int32(le.Uint32(b[8:])))
	if rows < 0 || cols < 0 || nnz < 0 || nnz > rows*cols {
		return nil, fmt.Errorf("%w: csr dims %dx%d nnz %d", ErrCompress, rows, cols, nnz)
	}
	if want := 12 + 4*(rows+1) + 12*nnz; int64(len(b)) != want {
		return nil, fmt.Errorf("%w: csr %dx%d nnz %d needs %d bytes, have %d", ErrCompress, rows, cols, nnz, want, len(b))
	}
	c := &CSR{
		Rows:   int(rows),
		Cols:   int(cols),
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, nnz),
		Values: make([]float64, nnz),
	}
	r := bytes.NewReader(b[12:])
	for _, v := range []any{c.RowPtr, c.ColIdx, c.Values} {
		if err := binary.Read(r, le, v); err != nil {
			return nil, fmt.Errorf("%w: csr body: %v", ErrCompress, err)
		}
	}
	if c.RowPtr[0] != 0 || int64(c.RowPtr[rows]) != nnz {
		return nil, fmt.Errorf("%w: csr row pointers span [%d, %d], want [0, %d]", ErrCompress, c.RowPtr[0], c.RowPtr[rows], nnz)
	}
	for i := 1; i <= c.Rows; i++ {
		if c.RowPtr[i] < c.RowPtr[i-1] {
			return nil, fmt.Errorf("%w: csr row pointer %d decreases", ErrCompress, i)
		}
	}
	for _, j := range c.ColIdx {
		if j < 0 || int64(j) >= cols {
			return nil, fmt.Errorf("%w: csr column %d outside %d columns", ErrCompress, j, cols)
		}
	}
	return c, nil
}

// Sparsity returns the fraction of zero entries in m.
func Sparsity(m *tensor.Matrix) float64 {
	if m.Size() == 0 {
		return 0
	}
	zeros := 0
	for _, v := range m.Data() {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(m.Size())
}

// DenseBytes returns the raw storage cost of a dense float64 matrix.
func DenseBytes(m *tensor.Matrix) int { return m.Size() * 8 }

// absThresholdForSparsity returns the magnitude threshold that prunes the
// given fraction of entries.
func absThresholdForSparsity(m *tensor.Matrix, sparsity float64) float64 {
	mags := make([]float64, m.Size())
	for i, v := range m.Data() {
		mags[i] = math.Abs(v)
	}
	k := int(sparsity * float64(len(mags)))
	if k <= 0 {
		return 0
	}
	if k >= len(mags) {
		k = len(mags) - 1
	}
	// nth-element via partial quickselect.
	return quickselect(mags, k)
}

// quickselect returns the k-th smallest element (0-based), mutating data.
func quickselect(data []float64, k int) float64 {
	lo, hi := 0, len(data)-1
	for lo < hi {
		p := partition(data, lo, hi)
		switch {
		case p == k:
			return data[p]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return data[k]
}

func partition(data []float64, lo, hi int) int {
	pivot := data[(lo+hi)/2]
	i, j := lo, hi
	for {
		for data[i] < pivot {
			i++
		}
		for data[j] > pivot {
			j--
		}
		if i >= j {
			return j
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}
