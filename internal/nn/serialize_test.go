package nn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"mobiledl/internal/tensor"
)

// gobFixture is EncodeWeights output of the gob-based format that preceded
// v1, for NewDense(rand.New(rand.NewSource(1)), 2, 2).
const gobFixture = "testdata/weights_gob_2x2.bin"

// paramList is a ParamSource over a fixed list: the shape of a composite
// servable (a cascade's local, cloud and exit halves in one list), and a
// Params that allocates nothing, for AllocsPerRun.
type paramList []*Param

func (l paramList) Params() []*Param { return l }

// randomArch draws an architecture and returns a builder for it: a Dense
// stack of 1–5 layers with widths 1–64, or (one time in four) a cascade's
// local/cloud/exit list, whose cloud and exit halves repeat param names.
func randomArch(rng *rand.Rand) func(seed int64) paramList {
	var w [6]int
	for i := range w {
		w[i] = 1 + rng.Intn(64)
	}
	layers, cascade := 1+rng.Intn(5), rng.Intn(4) == 0
	return func(seed int64) paramList {
		r := rand.New(rand.NewSource(seed))
		var ps paramList
		if cascade {
			local := NewSequential(NewDense(r, w[0], w[1]), NewTanh())
			cloud := NewSequential(NewDense(r, w[1], w[2]), NewReLU(), NewDense(r, w[2], w[3]))
			exit := NewSequential(NewDense(r, w[1], w[3]))
			for _, s := range []*Sequential{local, cloud, exit} {
				ps = append(ps, s.Params()...)
			}
			return ps
		}
		for i := 0; i < layers; i++ {
			ps = append(ps, NewDense(r, w[i], w[i+1]).Params()...)
		}
		return ps
	}
}

// specialValue mixes the values a lossy codec would mangle — NaN payloads
// (quiet and signalling, either sign), ±0, ±Inf, subnormals — with
// ordinary ones.
func specialValue(rng *rand.Rand) float64 {
	sign := uint64(rng.Intn(2)) << 63
	switch rng.Intn(6) {
	case 0:
		return math.Float64frombits(sign | 0x7ff0000000000000 | uint64(1+rng.Int63n(1<<52-1)))
	case 1:
		return math.Float64frombits(sign)
	case 2:
		return math.Float64frombits(sign | 0x7ff0000000000000)
	case 3:
		return math.Float64frombits(sign | uint64(1+rng.Int63n(1<<52-1)))
	default:
		return rng.NormFloat64()
	}
}

func fillSpecial(rng *rand.Rand, ps []*Param) {
	for _, p := range ps {
		data := p.Value.Data()
		for i := range data {
			data[i] = specialValue(rng)
		}
	}
}

func bitsOf(ps []*Param) []uint64 {
	var out []uint64
	for _, p := range ps {
		for _, v := range p.Value.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func TestWeightsRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		build := randomArch(rng)
		src, dst := build(int64(trial)), build(int64(trial)+1000)
		fillSpecial(rng, src)
		blob, err := EncodeWeights(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeWeights(dst, blob); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(bitsOf(src), bitsOf(dst)) {
			t.Fatalf("trial %d: round trip changed the bits of %d params", trial, len(src))
		}
	}
}

func TestDecodeWeightsRejectsCorruptBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	build := func(seed int64) paramList {
		r := rand.New(rand.NewSource(seed))
		return paramList(NewSequential(NewDense(r, 3, 2), NewTanh(), NewDense(r, 2, 1)).Params())
	}
	src, dst := build(1), build(2)
	fillSpecial(rng, src)
	fillSpecial(rng, dst)
	blob, err := EncodeWeights(src)
	if err != nil {
		t.Fatal(err)
	}
	want := bitsOf(dst)
	reject := func(what string, b []byte, format bool) {
		t.Helper()
		err := DecodeWeights(dst, b)
		if err == nil {
			t.Fatalf("%s: accepted", what)
		}
		if errors.Is(err, ErrWeightsFormat) != format {
			t.Fatalf("%s: errors.Is(ErrWeightsFormat) = %v, want %v (%v)", what, !format, format, err)
		}
		if !slices.Equal(bitsOf(dst), want) {
			t.Fatalf("%s: rejected blob wrote into the model", what)
		}
	}
	for n := range blob {
		reject("truncated", blob[:n], n < len(weightsMagic))
	}
	reject("trailing byte", append(append([]byte(nil), blob...), 0), false)

	nameLen := int(blob[weightsHeader]) | int(blob[weightsHeader+1])<<8
	fields := []struct {
		name   string
		off    int
		format bool
	}{
		{"magic", 0, true},
		{"magic", len(weightsMagic) - 1, true},
		{"version", len(weightsMagic), true},
		{"count", len(weightsMagic) + 1, false},
		{"name length", weightsHeader, false},
		{"name", weightsHeader + 2, false},
		{"rows", weightsHeader + 2 + nameLen, false},
		{"cols", weightsHeader + 2 + nameLen + 4, false},
	}
	for _, f := range fields {
		b := append([]byte(nil), blob...)
		b[f.off] ^= 0xff
		reject("flipped "+f.name, b, f.format)
	}
}

// TestDecodeWeightsRefusesGobFixture: a blob from the gob-based format that
// preceded v1 is refused with ErrWeightsFormat even when the architecture
// matches, and leaves the model alone.
func TestDecodeWeightsRefusesGobFixture(t *testing.T) {
	old, err := os.ReadFile(gobFixture)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewDense(rand.New(rand.NewSource(1)), 2, 2)
	want := bitsOf(dst.Params())
	if err := DecodeWeights(dst, old); !errors.Is(err, ErrWeightsFormat) {
		t.Fatalf("gob-era blob: err = %v, want ErrWeightsFormat", err)
	}
	if !slices.Equal(bitsOf(dst.Params()), want) {
		t.Fatal("refused blob wrote into the model")
	}
}

func TestWeightsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var model ParamSource = paramList(NewSequential(NewDense(rng, 16, 8), NewDense(rng, 8, 4)).Params())
	blob, err := EncodeWeights(model)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := DecodeWeights(model, blob); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("DecodeWeights: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := EncodeWeights(model); err != nil {
			t.Fatal(err)
		}
	}); a != 1 {
		t.Fatalf("EncodeWeights: %v allocs/op, want 1", a)
	}
}

// FuzzDecodeWeights: no input panics, a rejected input leaves the model
// untouched, and an accepted one is canonical — it re-encodes to itself.
func FuzzDecodeWeights(f *testing.F) {
	valid, err := EncodeWeights(NewDense(rand.New(rand.NewSource(1)), 2, 2))
	if err != nil {
		f.Fatal(err)
	}
	old, err := os.ReadFile(gobFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(old)
	f.Fuzz(func(t *testing.T, b []byte) {
		dst := NewDense(rand.New(rand.NewSource(2)), 2, 2)
		before := bitsOf(dst.Params())
		if err := DecodeWeights(dst, b); err != nil {
			if !slices.Equal(bitsOf(dst.Params()), before) {
				t.Fatalf("rejected blob wrote into the model: %v", err)
			}
			return
		}
		re, err := EncodeWeights(dst)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, b) {
			t.Fatal("accepted blob does not re-encode to itself")
		}
	})
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewSequential(NewDense(rng, 4, 6), NewTanh(), NewDense(rng, 6, 2))
	dst := NewSequential(NewDense(rng, 4, 6), NewTanh(), NewDense(rng, 6, 2))

	blob, err := EncodeWeights(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeWeights(dst, blob); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.Params() {
		if !dst.Params()[i].Value.Equal(p.Value, 0) {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
	// The two models must now produce identical outputs.
	x := tensor.RandNormal(rng, 3, 4, 0, 1)
	a, err := src.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b, 0) {
		t.Fatal("loaded model disagrees with source model")
	}
}

func TestLoadWeightsArchitectureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewSequential(NewDense(rng, 4, 6))
	blob, err := EncodeWeights(src)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong parameter count.
	bigger := NewSequential(NewDense(rng, 4, 6), NewDense(rng, 6, 2))
	if err := DecodeWeights(bigger, blob); err == nil {
		t.Fatal("want error for parameter-count mismatch")
	}

	// Wrong shape (same count, same layer kind).
	wrongShape := NewSequential(NewDense(rng, 4, 8))
	err = DecodeWeights(wrongShape, blob)
	if err == nil {
		t.Fatal("want error for shape mismatch")
	}
	if !strings.Contains(err.Error(), "param") || errors.Is(err, ErrWeightsFormat) {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestLoadWeightsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := NewSequential(NewDense(rng, 2, 2))
	if err := DecodeWeights(model, []byte("not gob")); !errors.Is(err, ErrWeightsFormat) {
		t.Fatalf("want ErrWeightsFormat for a foreign blob, got %v", err)
	}
}
