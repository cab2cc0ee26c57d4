package serve

import (
	"errors"
	"math/rand"
	"testing"

	"mobiledl/internal/compress"
	"mobiledl/internal/nn"
	"mobiledl/internal/split"
)

// mlpNet builds a fixed small architecture with seeded weights.
func mlpNet(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(
		nn.NewDense(rng, 8, 16), nn.NewReLU(),
		nn.NewDense(rng, 16, 4),
	)
}

// mlpFactory returns a Factory for the fixed architecture; each call yields
// fresh (seeded) weights so loads must come from the blob.
func mlpFactory(seed int64) Factory {
	return func() (Backend, error) { return NewDenseBackend(mlpNet(seed)) }
}

func newCascade(seed int64) (*split.EarlyExit, error) {
	rng := rand.New(rand.NewSource(seed))
	local := nn.NewSequential(nn.NewDense(rng, 8, 6), nn.NewTanh())
	cloud := nn.NewSequential(nn.NewDense(rng, 6, 12), nn.NewReLU(), nn.NewDense(rng, 12, 4))
	exit := nn.NewSequential(nn.NewDense(rng, 6, 4))
	p, err := split.New(split.Config{Local: local, Cloud: cloud, NullRate: 0.1, NoiseSigma: 0.5, Bound: 2})
	if err != nil {
		return nil, err
	}
	return split.NewEarlyExit(p, exit, 0.9)
}

func cascadeFactory(seed int64) Factory {
	return func() (Backend, error) {
		ee, err := newCascade(seed)
		if err != nil {
			return nil, err
		}
		return NewCascadeBackend(ee)
	}
}

func mustDense(t *testing.T, seed int64) *DenseBackend {
	t.Helper()
	b, err := NewDenseBackend(mlpNet(seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRegistryInstallWithMetaSurfacesProvenance(t *testing.T) {
	reg := NewRegistry()
	meta := &VersionMeta{Source: "fedserve", Round: 7, Accuracy: 0.91}
	if _, err := reg.InstallWithMeta("m", mustDense(t, 1), meta); err != nil {
		t.Fatal(err)
	}
	l, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if l.Meta == nil || *l.Meta != *meta {
		t.Fatalf("Loaded.Meta = %+v, want %+v", l.Meta, meta)
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].Train == nil || *snap[0].Train != *meta {
		t.Fatalf("Snapshot lost provenance: %+v", snap)
	}
	// A plain Install hot-swap clears the provenance for the new version.
	if _, err := reg.Install("m", mustDense(t, 2)); err != nil {
		t.Fatal(err)
	}
	if l, err = reg.Get("m"); err != nil || l.Meta != nil {
		t.Fatalf("unannotated version kept stale meta: %+v err %v", l.Meta, err)
	}
	// The annotated version stays resolvable (and annotated) in history.
	old, err := reg.GetVersion("m", 1)
	if err != nil || old.Meta == nil || old.Meta.Round != 7 {
		t.Fatalf("historical version lost meta: %+v err %v", old, err)
	}
}

func TestRegistryLoadHotSwapRoundTrip(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("mlp", mlpFactory(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("mlp"); err == nil {
		t.Fatal("Get before Load should fail")
	}

	// Author a "trained" model out of band and serialize it.
	src := mustDense(t, 99)
	blob, err := nn.EncodeWeights(src)
	if err != nil {
		t.Fatal(err)
	}

	v1, err := reg.Load("mlp", blob)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 {
		t.Fatalf("first load: version %d, want 1", v1)
	}
	got, err := reg.Get("mlp")
	if err != nil {
		t.Fatal(err)
	}
	// Loaded weights must equal the source, not the factory seed's.
	srcW := src.Params()[0].Value
	gotW := got.Backend.Params()[0].Value
	if !gotW.Equal(srcW, 0) {
		t.Fatal("loaded weights differ from serialized source")
	}

	// Hot swap: perturb the source, checkpoint, load again.
	src.Params()[0].Value.Fill(0.125)
	blob2, err := nn.EncodeWeights(src)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.Load("mlp", blob2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("second load: version %d, want 2", v2)
	}
	swapped, err := reg.Get("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if swapped.Backend.Params()[0].Value.At(0, 0) != 0.125 {
		t.Fatal("hot swap did not install new weights")
	}
	// The pre-swap snapshot is immutable and still serves.
	if got.Version != 1 || got.Backend.Params()[0].Value.At(0, 0) == 0.125 {
		t.Fatal("old loaded version was mutated by the swap")
	}

	// Checkpoint of the current version round-trips through Load.
	ck, err := reg.Checkpoint("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("mlp", ck); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryVersionHistory(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < VersionHistory+2; i++ {
		if _, err := reg.Install("m", mustDense(t, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != VersionHistory+2 {
		t.Fatalf("current version %d, want %d", cur.Version, VersionHistory+2)
	}
	// Version 0 resolves to current.
	if l, err := reg.GetVersion("m", 0); err != nil || l.Version != cur.Version {
		t.Fatalf("GetVersion 0: %v, v%d", err, l.Version)
	}
	// The last VersionHistory versions stay pinned.
	for v := cur.Version - VersionHistory + 1; v <= cur.Version; v++ {
		l, err := reg.GetVersion("m", v)
		if err != nil {
			t.Fatalf("retained version %d: %v", v, err)
		}
		if l.Version != v {
			t.Fatalf("pin %d resolved to v%d", v, l.Version)
		}
	}
	// Evicted and never-existed versions are client errors.
	for _, v := range []int{1, cur.Version + 1} {
		if _, err := reg.GetVersion("m", v); !errors.Is(err, ErrRequest) {
			t.Fatalf("version %d: err=%v, want ErrRequest", v, err)
		}
	}
}

func TestRegistryCascadeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("cascade", cascadeFactory(3)); err != nil {
		t.Fatal(err)
	}
	src, err := cascadeFactory(42)()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := nn.EncodeWeights(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("cascade", blob); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Get("cascade")
	if err != nil {
		t.Fatal(err)
	}
	cb, ok := got.Backend.(*CascadeBackend)
	if !ok {
		t.Fatalf("loaded backend is %T, want *CascadeBackend", got.Backend)
	}
	want := src.(*CascadeBackend).Cascade().Exit.Params()[0].Value
	have := cb.Cascade().Exit.Params()[0].Value
	if !have.Equal(want, 0) {
		t.Fatal("cascade exit weights did not round-trip")
	}
	if got.Info.Kind != "cascade" {
		t.Fatalf("cascade kind lost in load: %+v", got.Info)
	}
}

func TestRegistryLoadCompressed(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("mlp", mlpFactory(1)); err != nil {
		t.Fatal(err)
	}
	src := mustDense(t, 7)
	blob, err := nn.EncodeWeights(src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := reg.LoadCompressed("mlp", blob,
		compress.PipelineConfig{Sparsity: 0.5, Bits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version %d, want 1", v)
	}
	got, err := reg.Get("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if got.Sizes == nil || got.Sizes.Ratio() <= 1 {
		t.Fatalf("compressed load should record a >1x ratio, got %+v", got.Sizes)
	}
	infos := reg.Snapshot()
	if len(infos) != 1 || !infos[0].Compressed || infos[0].Kind != "dense" {
		t.Fatalf("snapshot: %+v", infos)
	}

	// Cascades refuse compression.
	if err := reg.Register("cascade", cascadeFactory(3)); err != nil {
		t.Fatal(err)
	}
	cs, _ := cascadeFactory(3)()
	csBlob, err := nn.EncodeWeights(cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadCompressed("cascade", csBlob, compress.PipelineConfig{Sparsity: 0.5, Bits: 4}); !errors.Is(err, ErrServe) {
		t.Fatalf("cascade compression: err=%v, want ErrServe", err)
	}
}

func TestRegistryErrors(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("", nil); !errors.Is(err, ErrServe) {
		t.Fatalf("empty register: %v", err)
	}
	if err := reg.Register("m", mlpFactory(1)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("m", mlpFactory(1)); !errors.Is(err, ErrServe) {
		t.Fatalf("duplicate register: %v", err)
	}
	if _, err := reg.Load("nope", nil); !errors.Is(err, ErrServe) {
		t.Fatalf("load unknown: %v", err)
	}
	// Wrong-architecture blob fails loudly.
	other, _ := cascadeFactory(1)()
	blob, err := nn.EncodeWeights(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("m", blob); err == nil {
		t.Fatal("mismatched architecture should fail to load")
	}
	// Install-only entries have no factory to Load through.
	if _, err := reg.Install("direct", mustDense(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("direct", nil); !errors.Is(err, ErrServe) {
		t.Fatalf("load without factory: %v", err)
	}
	if _, err := reg.Install("bad", nil); !errors.Is(err, ErrServe) {
		t.Fatalf("install nil backend: %v", err)
	}
}
