package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mobiledl/internal/data"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
	"mobiledl/internal/tensor"
)

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.RandNormal(rng, 6, 8, 0, 1)
	if _, err := PruneMatrix(m, 0.5); err != nil {
		t.Fatal(err)
	}
	csr := ToCSR(m)
	if !csr.ToDense().Equal(m, 0) {
		t.Fatal("CSR dense round trip failed")
	}
	enc, err := csr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCSR(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.ToDense().Equal(m, 0) {
		t.Fatal("CSR encode/decode round trip failed")
	}
}

func TestCSRRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tensor.RandNormal(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0, 1)
		// Randomly sparsify.
		d := m.Data()
		for i := range d {
			if rng.Float64() < 0.6 {
				d[i] = 0
			}
		}
		csr := ToCSR(m)
		enc, err := csr.Encode()
		if err != nil {
			return false
		}
		dec, err := DecodeCSR(enc)
		if err != nil {
			return false
		}
		return dec.ToDense().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRMatMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := tensor.RandNormal(rng, 5, 4, 0, 1)
	if _, err := PruneMatrix(w, 0.4); err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 3, 5, 0, 1)
	want, _ := tensor.MatMul(x, w)
	got, err := ToCSR(w).MatMul(x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-12) {
		t.Fatal("sparse matmul disagrees with dense")
	}
}

// csrBytes lays out an Encode-format blob from raw fields, valid or not.
func csrBytes(rows, cols, nnz int32, rowPtr, colIdx []int32, vals []float64) []byte {
	var buf bytes.Buffer
	for _, v := range []any{rows, cols, nnz, rowPtr, colIdx, vals} {
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

func TestDecodeCSRRejectsGarbage(t *testing.T) {
	valid := csrBytes(2, 3, 2, []int32{0, 1, 2}, []int32{2, 0}, []float64{1, 2})
	if _, err := DecodeCSR(valid); err != nil {
		t.Fatalf("valid blob: %v", err)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"short header", []byte{1, 2, 3}},
		// rows+1 wrapped in int32 and panicked in make.
		{"rows 2^31-1", csrBytes(0x7fffffff, 0, 0, nil, nil, nil)},
		// Allocated about 4 GB of row pointers before reading any.
		{"rows 2^30", csrBytes(1<<30, 0, 0, nil, nil, nil)},
		{"negative dims", csrBytes(-1, 3, 0, nil, nil, nil)},
		{"nnz over rows*cols", csrBytes(1, 1, 2, []int32{0, 2}, []int32{0, 0}, []float64{1, 2})},
		{"truncated", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"rowptr starts past 0", csrBytes(2, 3, 2, []int32{1, 1, 2}, []int32{2, 0}, []float64{1, 2})},
		{"rowptr decreases", csrBytes(3, 3, 2, []int32{0, 2, 1, 2}, []int32{2, 0}, []float64{1, 2})},
		{"rowptr ends short of nnz", csrBytes(2, 3, 2, []int32{0, 1, 1}, []int32{2, 0}, []float64{1, 2})},
		{"column past cols", csrBytes(2, 3, 2, []int32{0, 1, 2}, []int32{3, 0}, []float64{1, 2})},
		{"negative column", csrBytes(2, 3, 2, []int32{0, 1, 2}, []int32{-1, 0}, []float64{1, 2})},
	}
	for _, tc := range cases {
		if _, err := DecodeCSR(tc.b); !errors.Is(err, ErrCompress) {
			t.Errorf("%s: want ErrCompress, got %v", tc.name, err)
		}
	}
}

// FuzzDecodeCSR: no input panics, and Encode reproduces every accepted
// input byte for byte. (No ToDense here: a valid header may describe a
// matrix far larger than its encoding.)
func FuzzDecodeCSR(f *testing.F) {
	valid, err := ToCSR(tensor.Identity(3)).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(csrBytes(0x7fffffff, 0, 0, nil, nil, nil))
	f.Add(csrBytes(1<<30, 0, 0, nil, nil, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCSR(b)
		if err != nil {
			return
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatal("accepted input does not re-encode to itself")
		}
	})
}

func TestPruneMatrixSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.RandNormal(rng, 20, 20, 0, 1)
	got, err := PruneMatrix(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.9) > 0.02 {
		t.Fatalf("realized sparsity %v, want ~0.9", got)
	}
	// Surviving weights are the largest-magnitude ones: every remaining
	// |w| must be >= every pruned |w| (which is 0, so check the threshold
	// property on a fresh matrix instead).
	m2, _ := tensor.FromSlice(1, 4, []float64{0.1, -5, 0.2, 3})
	if _, err := PruneMatrix(m2, 0.5); err != nil {
		t.Fatal(err)
	}
	if m2.At(0, 1) != -5 || m2.At(0, 3) != 3 {
		t.Fatalf("pruning removed large weights: %v", m2)
	}
	if m2.At(0, 0) != 0 || m2.At(0, 2) != 0 {
		t.Fatalf("pruning kept small weights: %v", m2)
	}
	if _, err := PruneMatrix(m, 1.0); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for sparsity 1.0")
	}
}

func TestSparseDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := nn.NewDense(rng, 6, 3)
	if _, err := PruneMatrix(d.Weights().Value, 0.5); err != nil {
		t.Fatal(err)
	}
	sd := NewSparseDense(d)
	x := tensor.RandNormal(rng, 4, 6, 0, 1)
	want, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sd.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-12) {
		t.Fatal("SparseDense disagrees with Dense")
	}
	if _, err := sd.Backward(nil); !errors.Is(err, ErrCompress) {
		t.Fatal("SparseDense backward should refuse")
	}
}

func TestQuantizeKMeansAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tensor.RandNormal(rng, 10, 10, 0, 1)
	q8, err := QuantizeKMeans(rng, m, 8, 15)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := QuantizeKMeans(rng, m, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	e8, err := q8.QuantizationError(m)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := q2.QuantizationError(m)
	if err != nil {
		t.Fatal(err)
	}
	if e8 >= e2 {
		t.Fatalf("8-bit error %v should beat 2-bit error %v", e8, e2)
	}
	if e8 > 0.02 {
		t.Fatalf("8-bit quantization error %v too large", e8)
	}
}

func TestQuantizePreservesZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := tensor.RandNormal(rng, 8, 8, 0, 1)
	if _, err := PruneMatrix(m, 0.6); err != nil {
		t.Fatal(err)
	}
	q, err := QuantizeKMeans(rng, m, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Dequantize()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Data() {
		if v == 0 && rec.Data()[i] != 0 {
			t.Fatal("quantization did not preserve pruned zeros")
		}
	}
}

func TestQuantizeLinear(t *testing.T) {
	m, _ := tensor.FromSlice(1, 5, []float64{0, 0.25, 0.5, 0.75, 1})
	q, err := QuantizeLinear(m, 2) // 4 levels: 0, 1/3, 2/3, 1
	if err != nil {
		t.Fatal(err)
	}
	rec, err := q.Dequantize()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := q.QuantizationError(m)
	if e > 0.17 {
		t.Fatalf("2-bit linear error %v", e)
	}
	if rec.At(0, 0) != 0 || rec.At(0, 4) != 1 {
		t.Fatalf("linear quantization should hit range endpoints: %v", rec)
	}
	if _, err := QuantizeLinear(m, 0); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for 0 bits")
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		nsyms := 1 + rng.Intn(20)
		symbols := make([]uint16, n)
		for i := range symbols {
			// Skewed distribution so Huffman has something to exploit.
			s := rng.Intn(nsyms)
			if rng.Float64() < 0.5 {
				s = 0
			}
			symbols[i] = uint16(s)
		}
		freqs := make(map[uint16]int)
		for _, s := range symbols {
			freqs[s]++
		}
		hc, err := NewHuffmanCode(freqs)
		if err != nil {
			return false
		}
		enc, _, err := hc.Encode(symbols)
		if err != nil {
			return false
		}
		dec, err := hc.Decode(enc, len(symbols))
		if err != nil {
			return false
		}
		if len(dec) != len(symbols) {
			return false
		}
		for i := range dec {
			if dec[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanBeatsFixedWidthOnSkew(t *testing.T) {
	// 90% zeros over 16 symbols: Huffman mean bits should be well under the
	// fixed 4 bits.
	freqs := map[uint16]int{0: 900}
	for s := uint16(1); s < 16; s++ {
		freqs[s] = 7
	}
	hc, err := NewHuffmanCode(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if mean := hc.MeanBits(freqs); mean >= 2.5 {
		t.Fatalf("huffman mean bits %v on 90%%-skewed data, want < 2.5", mean)
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	hc, err := NewHuffmanCode(map[uint16]int{7: 42})
	if err != nil {
		t.Fatal(err)
	}
	enc, bits, err := hc.Encode([]uint16{7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if bits != 3 {
		t.Fatalf("bits %d, want 3", bits)
	}
	dec, err := hc.Decode(enc, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dec {
		if s != 7 {
			t.Fatal("single-symbol decode wrong")
		}
	}
	if _, err := NewHuffmanCode(nil); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for empty freqs")
	}
}

// trainedModel builds and trains a small classifier for compression tests.
func trainedModel(t *testing.T) (*nn.Sequential, *tensor.Matrix, []int) {
	t.Helper()
	fb, err := data.GenerateFedBench(data.FedBenchConfig{Samples: 400, Classes: 4, Dim: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	model := nn.NewSequential(
		nn.NewDense(rng, 10, 32),
		nn.NewReLU(),
		nn.NewDense(rng, 32, 4),
	)
	y, _ := nn.OneHot(fb.Labels, 4)
	if _, err := nn.Train(model, fb.X, y, nn.TrainConfig{
		Epochs: 20, BatchSize: 32, Optimizer: opt.NewAdam(0.01),
		Loss: nn.NewSoftmaxCrossEntropy(), Rng: rng,
	}); err != nil {
		t.Fatal(err)
	}
	return model, fb.X, fb.Labels
}

func TestDeepCompressionPipeline(t *testing.T) {
	model, x, labels := trainedModel(t)
	baseAcc, err := EvalAccuracy(model, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	work, err := CopyModel(model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPipeline(work, PipelineConfig{Sparsity: 0.7, Bits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes.PrunedBytes >= res.Sizes.DenseBytes {
		t.Fatalf("pruning did not shrink: %+v", res.Sizes)
	}
	if res.Sizes.QuantizedBytes >= res.Sizes.PrunedBytes {
		t.Fatalf("quantization did not shrink: %+v", res.Sizes)
	}
	if res.Sizes.HuffmanBytes > res.Sizes.QuantizedBytes {
		t.Fatalf("huffman grew the model: %+v", res.Sizes)
	}
	if r := res.Sizes.Ratio(); r < 5 {
		t.Fatalf("compression ratio %v, want >= 5x", r)
	}
	compAcc, err := EvalAccuracy(res.Model, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if compAcc < baseAcc-0.1 {
		t.Fatalf("compressed accuracy %v dropped too far from %v", compAcc, baseAcc)
	}
}

func TestPipelineValidation(t *testing.T) {
	model, _, _ := trainedModel(t)
	if _, err := RunPipeline(model, PipelineConfig{Sparsity: 0.5, Bits: 0}); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for bits=0")
	}
	empty := nn.NewSequential(nn.NewReLU())
	if _, err := RunPipeline(empty, PipelineConfig{Sparsity: 0.5, Bits: 4}); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for model without dense layers")
	}
}

func TestFactorizeDenseReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Build an exactly rank-3 weight matrix; rank-3 factorization must be
	// numerically lossless.
	a := tensor.RandNormal(rng, 12, 3, 0, 1)
	b := tensor.RandNormal(rng, 3, 8, 0, 1)
	w, _ := tensor.MatMul(a, b)
	d, err := nn.NewDenseFrom(w, tensor.New(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	first, second, err := FactorizeDense(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 5, 12, 0, 1)
	want, _ := d.Forward(x, false)
	h, err := first.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := second.Forward(h, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-8) {
		t.Fatal("rank-3 factorization of rank-3 layer is lossy")
	}
}

func TestFactorizeModelSavesParams(t *testing.T) {
	model, x, labels := trainedModel(t)
	baseAcc, _ := EvalAccuracy(model, x, labels)
	fm, before, after, err := FactorizeModel(model, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("factorization grew params: %d -> %d", before, after)
	}
	acc, err := EvalAccuracy(fm, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < baseAcc-0.15 {
		t.Fatalf("factorized accuracy %v dropped too far from %v", acc, baseAcc)
	}
	if _, _, _, err := FactorizeModel(model, 0); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for rank fraction 0")
	}
}

func TestDistillationHelpsSmallStudent(t *testing.T) {
	teacher, x, labels := trainedModel(t)
	newStudent := func(seed int64) *nn.Sequential {
		rng := rand.New(rand.NewSource(seed))
		return nn.NewSequential(nn.NewDense(rng, 10, 6), nn.NewReLU(), nn.NewDense(rng, 6, 4))
	}

	// Distilled student.
	distilled := newStudent(1)
	if _, err := Distill(teacher, distilled, x, labels, 4, DistillConfig{
		Epochs: 15, BatchSize: 32, Temperature: 3, Alpha: 0.7,
		Optimizer: opt.NewAdam(0.01), Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	distAcc, err := EvalAccuracy(distilled, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	teachAcc, _ := EvalAccuracy(teacher, x, labels)
	if distAcc < teachAcc-0.15 {
		t.Fatalf("distilled student %v far below teacher %v", distAcc, teachAcc)
	}
	if nn.NumParams(distilled.Params()) >= nn.NumParams(teacher.Params()) {
		t.Fatal("student is not smaller than teacher")
	}
}

func TestDistillValidation(t *testing.T) {
	teacher, x, labels := trainedModel(t)
	student := teacher
	if _, err := Distill(teacher, student, x, labels, 4, DistillConfig{}); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for zero config")
	}
}

func TestSparsifyModel(t *testing.T) {
	model, x, labels := trainedModel(t)
	if _, err := PruneModel(model, 0.6); err != nil {
		t.Fatal(err)
	}
	sparse := Sparsify(model)
	denseAcc, _ := EvalAccuracy(model, x, labels)
	sparseAcc, err := EvalAccuracy(sparse, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(denseAcc-sparseAcc) > 1e-12 {
		t.Fatalf("sparse model accuracy %v != dense pruned accuracy %v", sparseAcc, denseAcc)
	}
}

func TestPruneModelReportsSparsity(t *testing.T) {
	model, _, _ := trainedModel(t)
	s, err := PruneModel(model, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.8) > 0.05 {
		t.Fatalf("model sparsity %v, want ~0.8", s)
	}
	if _, err := PruneModel(nn.NewSequential(nn.NewReLU()), 0.5); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for dense-free model")
	}
}
