package tensor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 || m.Size() != 6 {
		t.Fatalf("got %dx%d size %d, want 2x3 size 6", m.Rows(), m.Cols(), m.Size())
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %v, want 4.5", got)
	}
	if got := m.Row(1)[2]; got != 4.5 {
		t.Fatalf("Row(1)[2] = %v, want 4.5", got)
	}
}

func TestFromSlice(t *testing.T) {
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := FromSlice(2, 2, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.At(2, 1) != 6 {
		t.Fatalf("unexpected matrix %v", m)
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape for ragged rows, got %v", err)
	}
}

func TestMatMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
	if _, err := MatMul(a, New(3, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 4, 3, 0, 1)
	b := RandNormal(rng, 5, 3, 0, 1)
	c := RandNormal(rng, 4, 5, 0, 1)

	abT, err := MatMulT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MatMul(a, b.T())
	if !abT.Equal(want, 1e-12) {
		t.Fatal("MatMulT disagrees with explicit transpose")
	}

	aTc, err := TMatMul(a, c)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := MatMul(a.T(), c)
	if !aTc.Equal(want2, 1e-12) {
		t.Fatal("TMatMul disagrees with explicit transpose")
	}
}

func TestElementwiseOps(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	sum, _ := Add(a, b)
	if sum.At(1, 1) != 44 {
		t.Fatalf("Add wrong: %v", sum)
	}
	diff, _ := Sub(b, a)
	if diff.At(0, 0) != 9 {
		t.Fatalf("Sub wrong: %v", diff)
	}
	prod, _ := Mul(a, b)
	if prod.At(1, 0) != 90 {
		t.Fatalf("Mul wrong: %v", prod)
	}
	if err := AxpyInPlace(a, 2, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 42 {
		t.Fatalf("Axpy wrong: %v", a)
	}
}

func TestBroadcastAndReductions(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := RowVector([]float64{10, 20, 30})
	got, err := AddRowVector(a, v)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(1, 2) != 36 {
		t.Fatalf("AddRowVector wrong: %v", got)
	}
	s := SumRows(a)
	if s.At(0, 0) != 5 || s.At(0, 2) != 9 {
		t.Fatalf("SumRows wrong: %v", s)
	}
	if a.Sum() != 21 || a.Mean() != 3.5 || a.Max() != 6 {
		t.Fatalf("reductions wrong: sum=%v mean=%v max=%v", a.Sum(), a.Mean(), a.Max())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandNormal(rng, 6, 9, 0, 5)
	sm := Softmax(a)
	for i := 0; i < sm.Rows(); i++ {
		var sum float64
		for _, v := range sm.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	a := RowVector([]float64{1000, 1001, 1002})
	sm := Softmax(a)
	for _, v := range sm.Row(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", sm)
		}
	}
}

func TestStackAndSlice(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5}, {6}})
	h, err := HStack(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cols() != 3 || h.At(1, 2) != 6 {
		t.Fatalf("HStack wrong: %v", h)
	}
	vcat, err := VStack(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if vcat.Rows() != 4 || vcat.At(3, 1) != 4 {
		t.Fatalf("VStack wrong: %v", vcat)
	}
	sc, err := h.SliceCols(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cols() != 2 || sc.At(0, 1) != 5 {
		t.Fatalf("SliceCols wrong: %v", sc)
	}
	sr, err := vcat.SliceRows(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Rows() != 2 || sr.At(0, 0) != 1 {
		t.Fatalf("SliceRows wrong: %v", sr)
	}
	sel, err := vcat.SelectRows([]int{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sel.At(0, 0) != 3 || sel.At(1, 0) != 1 {
		t.Fatalf("SelectRows wrong: %v", sel)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		m := RandNormal(rng, rows, cols, 0, 1)
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandNormal(rng, 1+rng.Intn(4), 1+rng.Intn(4), 0, 1)
		b := RandNormal(rng, a.Cols(), 1+rng.Intn(4), 0, 1)
		c := RandNormal(rng, b.Cols(), 1+rng.Intn(4), 0, 1)
		ab, _ := MatMul(a, b)
		abc1, _ := MatMul(ab, c)
		bc, _ := MatMul(b, c)
		abc2, _ := MatMul(a, bc)
		return abc1.Equal(abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandNormal(rng, rows, cols, 0, 10)
		b := RandNormal(rng, rows, cols, 0, 10)
		ab, _ := Add(a, b)
		ba, _ := Add(b, a)
		return ab.Equal(ba, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][2]int{{5, 3}, {3, 5}, {6, 6}, {1, 4}} {
		a := RandNormal(rng, dims[0], dims[1], 0, 1)
		res, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := res.Reconstruct()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Equal(a, 1e-8) {
			t.Fatalf("SVD reconstruction of %dx%d differs: %v vs %v", dims[0], dims[1], rec, a)
		}
		for i := 1; i < len(res.S); i++ {
			if res.S[i] > res.S[i-1]+1e-12 {
				t.Fatalf("singular values not descending: %v", res.S)
			}
		}
	}
}

func TestSVDTruncateLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Build an exactly rank-2 matrix; truncating to rank 2 must be lossless.
	u := RandNormal(rng, 6, 2, 0, 1)
	v := RandNormal(rng, 2, 5, 0, 1)
	a, _ := MatMul(u, v)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := res.Truncate(2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tr.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equal(a, 1e-8) {
		t.Fatal("rank-2 truncation of a rank-2 matrix is lossy")
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandNormal(rng, 7, 4, 0, 1)
	res, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	utu, _ := TMatMul(res.U, res.U)
	if !utu.Equal(Identity(4), 1e-8) {
		t.Fatalf("U columns not orthonormal: %v", utu)
	}
	vtv, _ := TMatMul(res.V, res.V)
	if !vtv.Equal(Identity(4), 1e-8) {
		t.Fatalf("V columns not orthonormal: %v", vtv)
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	m, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	r, err := m.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Set(0, 0, 99)
	if m.At(0, 0) != 99 {
		t.Fatal("Reshape did not share storage")
	}
	if _, err := m.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestNorms(t *testing.T) {
	m, _ := FromSlice(1, 2, []float64{3, -4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
	if got := m.L1Norm(); got != 7 {
		t.Fatalf("L1Norm = %v, want 7", got)
	}
	d, err := Dot(m, m)
	if err != nil || d != 25 {
		t.Fatalf("Dot = %v (%v), want 25", d, err)
	}
}

func TestArgMaxRow(t *testing.T) {
	m, _ := FromRows([][]float64{{0.1, 0.9, 0.2}, {5, 1, 2}})
	if m.ArgMaxRow(0) != 1 || m.ArgMaxRow(1) != 0 {
		t.Fatal("ArgMaxRow wrong")
	}
}

func TestGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := GlorotUniform(rng, 100, 50)
	limit := math.Sqrt(6.0 / 150.0)
	for _, v := range m.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside [-%v, %v]", v, limit, limit)
		}
	}
}
