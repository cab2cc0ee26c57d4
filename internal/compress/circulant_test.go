package compress

import (
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6)) // 2..64
		data := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range data {
			data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = data[i]
		}
		FFT(data, false)
		FFT(data, true)
		for i := range data {
			if cmplx.Abs(data[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTKnownValues(t *testing.T) {
	// FFT of an impulse is all ones.
	data := []complex128{1, 0, 0, 0}
	FFT(data, false)
	for i, v := range data {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
	// FFT of all ones is an impulse of height n.
	data = []complex128{1, 1, 1, 1}
	FFT(data, false)
	if cmplx.Abs(data[0]-4) > 1e-12 {
		t.Fatalf("DC bin %v, want 4", data[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(data[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, data[i])
		}
	}
}

// circulantDense builds a Dense layer whose weight matrix is exactly
// block-circulant, so the projection must be lossless.
func circulantDense(t *testing.T, rng *rand.Rand, in, out, block int) *nn.Dense {
	t.Helper()
	w := tensor.New(in, out)
	for i := 0; i < out/block; i++ {
		for j := 0; j < in/block; j++ {
			c := make([]float64, block)
			for k := range c {
				c[k] = rng.NormFloat64()
			}
			for r := 0; r < block; r++ {
				for s := 0; s < block; s++ {
					w.Set(j*block+s, i*block+r, c[(r-s+block)%block])
				}
			}
		}
	}
	bias := tensor.RandNormal(rng, 1, out, 0, 1)
	d, err := nn.NewDenseFrom(w, bias)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBlockCirculantExactOnCirculantWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := circulantDense(t, rng, 8, 12, 4)
	bc, err := NewBlockCirculantFromDense(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 5, 8, 0, 1)
	want, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bc.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatal("FFT circulant forward disagrees with dense forward on circulant weights")
	}
	// ToDense must reconstruct the original weights exactly.
	rec, err := bc.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Weights().Value.Equal(d.Weights().Value, 1e-9) {
		t.Fatal("ToDense did not recover circulant weights")
	}
}

func TestBlockCirculantBlockOneIsExact(t *testing.T) {
	// Block size 1 stores every weight: the projection is the identity.
	rng := rand.New(rand.NewSource(2))
	d := nn.NewDense(rng, 6, 4)
	bc, err := NewBlockCirculantFromDense(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 3, 6, 0, 1)
	want, _ := d.Forward(x, false)
	got, err := bc.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatal("block=1 circulant is not exact")
	}
}

func TestBlockCirculantCompressionRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := nn.NewDense(rng, 16, 16)
	bc, err := NewBlockCirculantFromDense(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 16*16/8 + 16 bias = 48 vs 256 + 16.
	if got := bc.ParamCount(); got != 16*16/8+16 {
		t.Fatalf("ParamCount %d", got)
	}
}

func TestBlockCirculantValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := nn.NewDense(rng, 6, 4)
	if _, err := NewBlockCirculantFromDense(d, 3); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for non-power-of-two block")
	}
	if _, err := NewBlockCirculantFromDense(d, 4); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for non-dividing block")
	}
	bc, err := NewBlockCirculantFromDense(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Backward(nil); !errors.Is(err, ErrCompress) {
		t.Fatal("circulant backward should refuse")
	}
	if _, err := bc.Forward(tensor.New(1, 5), false); !errors.Is(err, tensor.ErrShape) {
		t.Fatal("want ErrShape for wrong input width")
	}
}

func TestCirculantModelAccuracyTradeoff(t *testing.T) {
	model, x, labels := trainedModel(t) // 10 -> 32 -> 4 MLP
	baseAcc, err := EvalAccuracy(model, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	// Block 2 on the 10x32 layer: 10,32 both even.
	cm, before, after, err := CirculantModel(model, 2)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("circulant projection saved nothing: %d -> %d", before, after)
	}
	acc, err := EvalAccuracy(cm, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < baseAcc-0.35 {
		t.Fatalf("block-2 circulant accuracy %v collapsed from %v", acc, baseAcc)
	}
	if _, _, _, err := CirculantModel(nn.NewSequential(nn.NewReLU()), 2); !errors.Is(err, ErrCompress) {
		t.Fatal("want ErrCompress for dense-free model")
	}
}

// ToDense expands the block-circulant operator back to an explicit dense
// layer (for verification and accuracy evaluation).
func (l *BlockCirculantDense) ToDense() (*nn.Dense, error) {
	w := tensor.New(l.in, l.out)
	b := l.block
	for i := 0; i < l.out/b; i++ {
		for j := 0; j < l.in/b; j++ {
			c := l.coeffs[i][j]
			for r := 0; r < b; r++ {
				for s := 0; s < b; s++ {
					w.Set(j*b+s, i*b+r, c[(r-s+b)%b])
				}
			}
		}
	}
	return nn.NewDenseFrom(w, l.bias.Clone())
}

// CirculantModel replaces every compatible Dense layer with its
// block-circulant projection, returning the new model and the weight
// parameter counts before/after.
func CirculantModel(model *nn.Sequential, block int) (*nn.Sequential, int, int, error) {
	layers := model.Layers()
	out := make([]nn.Layer, len(layers))
	before, after := 0, 0
	converted := false
	for i, layer := range layers {
		d, ok := layer.(*nn.Dense)
		if !ok {
			out[i] = layer
			continue
		}
		before += d.In()*d.Out() + d.Out()
		if d.In()%block != 0 || d.Out()%block != 0 {
			out[i] = layer
			after += d.In()*d.Out() + d.Out()
			continue
		}
		bc, err := NewBlockCirculantFromDense(d, block)
		if err != nil {
			return nil, 0, 0, err
		}
		out[i] = bc
		after += bc.ParamCount()
		converted = true
	}
	if !converted {
		return nil, 0, 0, fmt.Errorf("%w: no layer compatible with block %d", ErrCompress, block)
	}
	return nn.NewSequential(out...), before, after, nil
}

// ParamCount returns the number of stored weight parameters (mn/b + bias).
func (l *BlockCirculantDense) ParamCount() int {
	return l.in*l.out/l.block + l.out
}
