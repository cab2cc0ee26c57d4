package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// naiveMatMul is the reference three-loop product the kernels are checked
// against.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matmulShapes covers odd, non-multiple-of-unroll shapes (inner dims 1, 2,
// 3, 5 exercise every remainder of the 4-wide k-unroll) plus one shape past
// the parallel work threshold.
var matmulShapes = [][3]int{
	{1, 1, 1}, {1, 5, 1}, {3, 7, 5}, {17, 33, 9}, {65, 129, 31},
	{4, 2, 4}, {5, 3, 2}, {64, 128, 64},
	{128, 128, 128}, // 2^21 MACs: above parallelMinWork
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range matmulShapes {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[1], s[2])
		want := naiveMatMul(a, b)

		got, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("MatMul %v diverges from naive", s)
		}

		dst := New(s[0], s[2])
		dst.Fill(42) // Into must fully overwrite, not accumulate
		if err := MatMulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want, 1e-9) {
			t.Fatalf("MatMulInto %v diverges from naive", s)
		}

		// Accumulate variant: dst += a@b twice = 2*(a@b).
		if err := MatMulAccInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(Scale(want, 2), 1e-9) {
			t.Fatalf("MatMulAccInto %v diverges from 2x naive", s)
		}
	}
}

// TestMatMulParallelMatchesSequential pins the row-split path against the
// single-goroutine portable kernel, bit for bit, at shapes whose row counts
// are odd or do not divide evenly across workers, so that blocks start on odd
// rows and end on unpaired ones — for the vector range kernel too, where the
// machine has one.
func TestMatMulParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	kernels := []func(dst, a, b *Matrix, i0, i1 int, acc bool){matMulRange}
	if hasAVX2 {
		kernels = append(kernels, matMulRangeAVX2)
	}
	for _, s := range [][3]int{{7, 64, 32}, {13, 50, 11}, {33, 70, 21}, {34, 9, 6}, {35, 66, 130}, {130, 128, 127}, {256, 256, 256}} {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[1], s[2])
		seq := New(s[0], s[2])
		matMulRange(seq, a, b, 0, s[0], false)
		for _, workers := range []int{2, 3, 5, runtime.GOMAXPROCS(0) + 1} {
			for ki, kernel := range kernels {
				par := New(s[0], s[2])
				parallelRows(s[0], workers, func(i0, i1 int) { kernel(par, a, b, i0, i1, false) })
				if !slices.Equal(par.data, seq.data) {
					t.Fatalf("parallel MatMul %v with %d workers, kernel %d: not bit-equal to sequential", s, workers, ki)
				}
			}
		}
	}
}

// TestMatMulIntoZeroAlloc: past the threshold and on one CPU — the path a
// single-core serving box takes for a full batch — MatMulInto allocates
// nothing, whichever range kernel the machine selects.
func TestMatMulIntoZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 16, 1024)
	b := randMat(rng, 1024, 1024)
	dst := New(16, 1024)
	allocs := testing.AllocsPerRun(3, func() {
		if err := MatMulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MatMulInto 16x1024x1024 on one CPU: %v allocs/op, want 0", allocs)
	}
}

func TestMatMulTIntoMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range matmulShapes {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[2], s[1]) // b^T is s[1] x s[2]
		want := naiveMatMul(a, b.T())
		dst := New(s[0], s[2])
		dst.Fill(-3)
		if err := MatMulTInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want, 1e-9) {
			t.Fatalf("MatMulTInto %v diverges", s)
		}
		if err := MatMulTAccInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(Scale(want, 2), 1e-9) {
			t.Fatalf("MatMulTAccInto %v diverges", s)
		}
	}
}

func TestTMatMulIntoMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, s := range matmulShapes {
		a := randMat(rng, s[1], s[0]) // a^T is s[0] x s[1]
		b := randMat(rng, s[1], s[2])
		want := naiveMatMul(a.T(), b)
		dst := New(s[0], s[2])
		dst.Fill(5)
		if err := TMatMulInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want, 1e-9) {
			t.Fatalf("TMatMulInto %v diverges", s)
		}
		if err := TMatMulAccInto(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(Scale(want, 2), 1e-9) {
			t.Fatalf("TMatMulAccInto %v diverges", s)
		}
		// The parallel split for a^T @ b is over dst rows (a's columns);
		// check odd worker counts directly.
		for _, workers := range []int{2, 3} {
			if s[0] < workers {
				continue
			}
			par := New(s[0], s[2])
			parallelRows(s[0], workers, func(i0, i1 int) { tMatMulRange(par, a, b, i0, i1, false) })
			if !par.Equal(want, 1e-9) {
				t.Fatalf("parallel TMatMul %v with %d workers diverges", s, workers)
			}
		}
	}
}

func TestIntoShapeChecks(t *testing.T) {
	a := New(2, 3)
	b := New(3, 4)
	if err := MatMulInto(New(2, 3), a, b); err == nil {
		t.Fatal("MatMulInto accepted wrong dst shape")
	}
	if err := MatMulTInto(New(2, 2), a, New(4, 2)); err == nil {
		t.Fatal("MatMulTInto accepted mismatched inner dims")
	}
	if err := AddInto(New(2, 3), a, New(3, 2)); err == nil {
		t.Fatal("AddInto accepted mismatched operands")
	}
	if err := SubInto(New(3, 2), a, a); err == nil {
		t.Fatal("SubInto accepted wrong dst shape")
	}
	if err := TInto(New(2, 3), a); err == nil {
		t.Fatal("TInto accepted un-transposed dst shape")
	}
	if err := SumRowsInto(New(2, 3), a); err == nil {
		t.Fatal("SumRowsInto accepted non-row dst")
	}
}

func TestElementwiseIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 4, 5)
	b := randMat(rng, 4, 5)

	want, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst := a.Clone()
	if err := AddInto(dst, dst, b); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want, 0) {
		t.Fatal("AddInto with dst aliasing a diverges")
	}

	wantSub, err := Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst = a.Clone()
	if err := SubInto(dst, dst, b); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(wantSub, 0) {
		t.Fatal("SubInto with dst aliasing a diverges")
	}

	wantMul, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst = b.Clone()
	if err := MulInto(dst, a, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(wantMul, 0) {
		t.Fatal("MulInto with dst aliasing b diverges")
	}

	v := randMat(rng, 1, 5)
	wantRV, err := AddRowVector(a, v)
	if err != nil {
		t.Fatal(err)
	}
	dst = a.Clone()
	if err := AddRowVectorInto(dst, dst, v); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(wantRV, 0) {
		t.Fatal("AddRowVectorInto in place diverges")
	}

	wantSm := Softmax(a)
	dst = a.Clone()
	if err := SoftmaxInto(dst, dst); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(wantSm, 1e-15) {
		t.Fatal("SoftmaxInto in place diverges")
	}

	wantAp := Apply(a, math.Exp)
	dst = a.Clone()
	if err := ApplyInto(dst, dst, math.Exp); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(wantAp, 0) {
		t.Fatal("ApplyInto in place diverges")
	}
}

func TestTIntoAndSelectRowsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 3, 7)
	dst := New(7, 3)
	if err := TInto(dst, a); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(a.T(), 0) {
		t.Fatal("TInto diverges from T")
	}

	idx := []int{2, 0, 2}
	want, err := a.SelectRows(idx)
	if err != nil {
		t.Fatal(err)
	}
	got := New(3, 7)
	if err := a.SelectRowsInto(got, idx); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("SelectRowsInto diverges from SelectRows")
	}
	if err := a.SelectRowsInto(got, []int{0, 1, 99}); err == nil {
		t.Fatal("SelectRowsInto accepted out-of-range index")
	}
}

func TestRowMatrixView(t *testing.T) {
	m := New(3, 4)
	v := m.RowMatrix(1)
	v.Set(0, 2, 9)
	if m.At(1, 2) != 9 {
		t.Fatal("RowMatrix does not alias parent storage")
	}
	if v.Rows() != 1 || v.Cols() != 4 {
		t.Fatalf("RowMatrix shape %dx%d, want 1x4", v.Rows(), v.Cols())
	}
}

func TestPoolGetZeroedAndReused(t *testing.T) {
	var p Pool
	m := p.Get(4, 8)
	if m.Rows() != 4 || m.Cols() != 8 {
		t.Fatalf("Get shape %dx%d", m.Rows(), m.Cols())
	}
	m.Fill(7)
	p.Put(m)
	// Same capacity class: must come back zeroed regardless of reuse.
	n := p.Get(5, 5)
	for _, v := range n.Data() {
		if v != 0 {
			t.Fatal("pooled matrix not zeroed on Get")
		}
	}
	p.Put(n)
	// A larger request never reuses a too-small buffer.
	big := p.Get(100, 100)
	if big.Size() != 10000 || len(big.Data()) != 10000 {
		t.Fatalf("Get(100,100) size %d", big.Size())
	}
	p.Put(big)
	p.Put(nil)       // must not panic
	p.Put(New(0, 0)) // empty: no-op
}

// TestPoolConcurrent hammers one pool from 64 goroutines under -race: every
// goroutine must observe fully-zeroed, correctly-shaped private buffers.
func TestPoolConcurrent(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				rows := 1 + (g+it)%7
				cols := 1 + (g*it)%13
				m := p.Get(rows, cols)
				for _, v := range m.Data() {
					if v != 0 {
						errs <- errNotZero
						return
					}
				}
				m.Fill(float64(g))
				p.Put(m)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

var errNotZero = errShapeFor("pool handed out a dirty buffer")

func errShapeFor(msg string) error { return &poolTestErr{msg} }

type poolTestErr struct{ msg string }

func (e *poolTestErr) Error() string { return e.msg }
