package tensor

import (
	"math/bits"
	"sync"
)

// Pool recycles matrix storage across calls so hot paths (serving batches,
// per-step recurrent scratch, gradient temporaries) stop paying one garbage
// matrix per operation. Buffers are bucketed by capacity class (powers of
// two), so a Get is satisfied by any previously Put matrix whose capacity
// covers the request.
//
// Ownership convention (see doc.go "Performance"): a matrix obtained from
// Get is owned by the caller until it is handed back with Put; after Put the
// matrix must not be touched again. Matrices that escape to API callers
// (returned results) are never pooled — only intra-call scratch is.
//
// The zero value is ready to use. A Pool is safe for concurrent use; the
// package-level Get/Put helpers share one default pool so independent
// subsystems (batcher, cascade backend, nn backward passes) feed each other's
// reuse.
type Pool struct {
	buckets [poolBuckets]sync.Pool
}

// poolBuckets caps the largest pooled buffer at 2^(poolBuckets-1) floats
// (512 MiB of float64); anything larger is allocated and dropped normally.
const poolBuckets = 27

// bucketFor returns the smallest b such that 1<<b >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a zeroed rows x cols matrix, reusing pooled storage when a
// large-enough buffer is available. It panics on negative dimensions like
// New.
func (p *Pool) Get(rows, cols int) *Matrix {
	n := rows * cols
	if rows < 0 || cols < 0 || n == 0 {
		return New(rows, cols)
	}
	b := bucketFor(n)
	if b >= poolBuckets {
		return New(rows, cols)
	}
	if v := p.buckets[b].Get(); v != nil {
		m := v.(*Matrix)
		m.rows, m.cols = rows, cols
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
		return m
	}
	// Allocate at full bucket capacity so the buffer satisfies any request
	// in this class once recycled.
	return &Matrix{rows: rows, cols: cols, data: make([]float64, n, 1<<b)}
}

// Put hands m back to the pool for reuse. m must not be used after Put, and
// must not alias storage still in use elsewhere (never Put a Reshape view or
// a RowMatrix). Put(nil) and empty matrices are no-ops.
func (p *Pool) Put(m *Matrix) {
	if m == nil || cap(m.data) == 0 {
		return
	}
	// File under the largest class the capacity fully covers, so Get's
	// "capacity >= request" invariant holds.
	b := bits.Len(uint(cap(m.data))) - 1
	if b >= poolBuckets {
		b = poolBuckets - 1
	}
	m.data = m.data[:0]
	m.rows, m.cols = 0, 0
	p.buckets[b].Put(m)
}

var defaultPool Pool

// Get returns a zeroed rows x cols matrix from the shared default pool.
func Get(rows, cols int) *Matrix { return defaultPool.Get(rows, cols) }

// Put returns m to the shared default pool. See Pool.Put for the aliasing
// rules.
func Put(m *Matrix) { defaultPool.Put(m) }
