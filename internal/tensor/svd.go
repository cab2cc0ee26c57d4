package tensor

import (
	"fmt"
	"math"
	"sort"
)

// SVDResult holds a thin singular value decomposition A = U diag(S) V^T,
// with U m x r, S length r, V n x r for an m x n input of rank at most r.
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// SVD computes the thin singular value decomposition of a using the
// one-sided Jacobi method. It is O(mn^2) per sweep and converges fast for
// the modest layer sizes used in this repository's low-rank factorization
// experiments (E10). Singular values are returned in descending order.
func SVD(a *Matrix) (*SVDResult, error) {
	m, n := a.rows, a.cols
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("%w: SVD of empty %dx%d matrix", ErrShape, m, n)
	}
	// One-sided Jacobi works on the columns of A; for m < n decompose the
	// transpose and swap U/V.
	if m < n {
		res, err := SVD(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: res.V, S: res.S, V: res.U}, nil
	}

	// Work on a copy; w's columns converge to U * diag(S).
	w := a.Clone()
	v := Identity(n)

	const (
		maxSweeps = 60
		eps       = 1e-12
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		offDiag := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				offDiag = math.Max(offDiag, math.Abs(gamma)/math.Sqrt(alpha*beta))
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.data[i*n+p]
					wq := w.data[i*n+q]
					w.data[i*n+p] = c*wp - s*wq
					w.data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.data[i*n+p]
					vq := v.data[i*n+q]
					v.data[i*n+p] = c*vp - s*vq
					v.data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if offDiag < eps {
			break
		}
	}

	// Extract singular values as column norms of w and normalize.
	sv := make([]float64, n)
	u := New(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += w.data[i*n+j] * w.data[i*n+j]
		}
		norm = math.Sqrt(norm)
		sv[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.data[i*n+j] = w.data[i*n+j] / norm
			}
		}
	}

	// Sort by descending singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return sv[idx[x]] > sv[idx[y]] })

	us := New(m, n)
	vs := New(n, n)
	ss := make([]float64, n)
	for newJ, oldJ := range idx {
		ss[newJ] = sv[oldJ]
		for i := 0; i < m; i++ {
			us.data[i*n+newJ] = u.data[i*n+oldJ]
		}
		for i := 0; i < n; i++ {
			vs.data[i*n+newJ] = v.data[i*n+oldJ]
		}
	}
	return &SVDResult{U: us, S: ss, V: vs}, nil
}

// Truncate reduces the decomposition to its top-k components.
func (r *SVDResult) Truncate(k int) (*SVDResult, error) {
	if k <= 0 || k > len(r.S) {
		return nil, fmt.Errorf("%w: Truncate rank %d of %d", ErrShape, k, len(r.S))
	}
	u, err := r.U.SliceCols(0, k)
	if err != nil {
		return nil, err
	}
	v, err := r.V.SliceCols(0, k)
	if err != nil {
		return nil, err
	}
	s := make([]float64, k)
	copy(s, r.S[:k])
	return &SVDResult{U: u, S: s, V: v}, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}
