package compress

import (
	"fmt"
	"math"
	"math/cmplx"

	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// BlockCirculantDense is an inference-only dense layer whose weight matrix
// is block-circulant — the "structural matrix" compression of Section III-B
// ([35]) accelerated with FFT-based multiplication as in CirCNN [14]: an
// m x n matrix is described by mn/b parameters (b the block size) and each
// block-vector product is a circular convolution computed in O(b log b).
type BlockCirculantDense struct {
	in, out, block int
	// coeffs[i][j] is the defining vector (first column) of the circulant
	// block at block-row i, block-column j.
	coeffs [][][]float64
	bias   *tensor.Matrix

	// fftCoeffs caches the FFT of every defining vector.
	fftCoeffs [][][]complex128
}

var _ nn.Layer = (*BlockCirculantDense)(nil)

// NewBlockCirculantFromDense compresses an existing dense layer into
// block-circulant form with the given block size (a power of two dividing
// both dimensions). Each b x b block of the weight matrix is projected to
// the nearest circulant matrix by averaging its wrapped diagonals — the
// least-squares-optimal circulant approximation.
//
//nolint:deadexport // test seam: the module root's BenchmarkCirculantForward
func NewBlockCirculantFromDense(d *nn.Dense, block int) (*BlockCirculantDense, error) {
	in, out := d.In(), d.Out()
	switch {
	case block < 1:
		return nil, fmt.Errorf("%w: block size %d", ErrCompress, block)
	case block&(block-1) != 0:
		return nil, fmt.Errorf("%w: block size %d is not a power of two", ErrCompress, block)
	case in%block != 0 || out%block != 0:
		return nil, fmt.Errorf("%w: block %d does not divide %dx%d", ErrCompress, block, in, out)
	}
	w := d.Weights().Value // in x out
	l := &BlockCirculantDense{
		in:    in,
		out:   out,
		block: block,
		bias:  d.Bias().Value.Clone(),
	}
	nbr := out / block // block rows of the (out x in) operator
	nbc := in / block
	l.coeffs = make([][][]float64, nbr)
	l.fftCoeffs = make([][][]complex128, nbr)
	for i := 0; i < nbr; i++ {
		l.coeffs[i] = make([][]float64, nbc)
		l.fftCoeffs[i] = make([][]complex128, nbc)
		for j := 0; j < nbc; j++ {
			c := make([]float64, block)
			// Operator entry O[r][s] = W[s][r] (forward computes x @ W).
			// Circulant convention: O[r][s] = c[(r-s) mod b].
			for r := 0; r < block; r++ {
				for s := 0; s < block; s++ {
					c[(r-s+block)%block] += w.At(j*block+s, i*block+r)
				}
			}
			for k := range c {
				c[k] /= float64(block)
			}
			l.coeffs[i][j] = c
			fc := make([]complex128, block)
			for k, v := range c {
				fc[k] = complex(v, 0)
			}
			FFT(fc, false)
			l.fftCoeffs[i][j] = fc
		}
	}
	return l, nil
}

// Forward implements nn.Layer using FFT-based circular convolution.
func (l *BlockCirculantDense) Forward(x *tensor.Matrix, _ bool) (*tensor.Matrix, error) {
	if x.Cols() != l.in {
		return nil, fmt.Errorf("%w: circulant forward %d cols, want %d", tensor.ErrShape, x.Cols(), l.in)
	}
	out := tensor.New(x.Rows(), l.out)
	b := l.block
	nbr := l.out / b
	nbc := l.in / b
	xf := make([]complex128, b)
	acc := make([]complex128, b)
	for r := 0; r < x.Rows(); r++ {
		row := x.Row(r)
		orow := out.Row(r)
		for j := 0; j < nbc; j++ {
			for k := 0; k < b; k++ {
				xf[k] = complex(row[j*b+k], 0)
			}
			FFT(xf, false)
			for i := 0; i < nbr; i++ {
				fc := l.fftCoeffs[i][j]
				for k := 0; k < b; k++ {
					acc[k] = xf[k] * fc[k]
				}
				FFT(acc, true)
				for k := 0; k < b; k++ {
					orow[i*b+k] += real(acc[k])
				}
			}
		}
		for k := 0; k < l.out; k++ {
			orow[k] += l.bias.At(0, k)
		}
	}
	return out, nil
}

// Backward implements nn.Layer; the layer is inference-only.
func (l *BlockCirculantDense) Backward(_ *tensor.Matrix) (*tensor.Matrix, error) {
	return nil, fmt.Errorf("%w: BlockCirculantDense is inference-only", ErrCompress)
}

// Params implements nn.Layer (no trainable parameters).
func (l *BlockCirculantDense) Params() []*nn.Param { return nil }

// FFT computes the in-place radix-2 Cooley-Tukey FFT of data (len must be a
// power of two). inverse selects the inverse transform (scaled by 1/n).
func FFT(data []complex128, inverse bool) {
	n := len(data)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			data[i], data[j] = data[j], data[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := data[i+j]
				v := data[i+j+length/2] * w
				data[i+j] = u + v
				data[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range data {
			data[i] *= inv
		}
	}
}
