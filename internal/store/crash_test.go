package store

import (
	"math/rand"
	"testing"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
)

// The kill-recover suite: a registry (and coordinator) runs against a real
// WAL store while Failpoints kills persistence mid-publish, then a fresh
// process image (new store, new registry) boots from the same dir and must
// serve exactly the last durably-published version — no more, no less.

const crashModel = "crashmlp"

func crashFactory() (serve.Backend, error) {
	rng := rand.New(rand.NewSource(7))
	m := nn.NewSequential(nn.NewDense(rng, 4, 6), nn.NewReLU(), nn.NewDense(rng, 6, 3))
	return serve.NewDenseBackend(m)
}

// publishVersion installs version v of the crash model with its first weight
// stamped to v, so recovered weights identify exactly which version survived.
func publishVersion(t *testing.T, reg *serve.Registry, v int) {
	t.Helper()
	b, err := crashFactory()
	if err != nil {
		t.Fatal(err)
	}
	b.Params()[0].Value.Set(0, 0, float64(v))
	if _, err := reg.InstallWithMeta(crashModel, b, &serve.VersionMeta{Source: "test", Round: v}); err != nil {
		t.Fatalf("install v%d: %v", v, err)
	}
}

func newCrashRegistry(t *testing.T, st *Store) *serve.Registry {
	t.Helper()
	reg := serve.NewRegistry()
	if err := reg.Register(crashModel, crashFactory); err != nil {
		t.Fatal(err)
	}
	if st != nil {
		reg.SetStore(st)
	}
	return reg
}

// reopenAndRecover is "the restarted process": a fresh store over the same
// dir, a fresh registry, boot replay.
func reopenAndRecover(t *testing.T, dir string) (*Store, *serve.Registry) {
	t.Helper()
	st := openT(t, Options{Dir: dir})
	reg := newCrashRegistry(t, st)
	if _, _, err := reg.RecoverFrom(st); err != nil {
		t.Fatalf("RecoverFrom: %v", err)
	}
	return st, reg
}

func TestKillRecoverMatrix(t *testing.T) {
	const n = 4
	cases := []struct {
		name string
		arm  func(fp *Failpoints, point int)
		// wantCur is the version the restarted process must serve when the
		// fault fires on publish `point` of n.
		wantCur func(point int) int
		// wantErrs is whether the first process observes append failures
		// (latent CRC corruption it cannot), and wantFinal the store status
		// once all n publishes ran — degraded clears on the next good append,
		// so only the bricked torn-write store ends degraded.
		wantErrs  bool
		wantFinal string
	}{
		// A clean one-shot write failure loses exactly that publish; later
		// publishes land, so the restart serves the newest version.
		{"fail-write", func(fp *Failpoints, p int) { fp.FailWrite(p) },
			func(int) int { return n }, true, serve.StoreOK},
		// A failed fsync is undone (truncate back); same durable set.
		{"fail-fsync", func(fp *Failpoints, p int) { fp.FailFsync(p) },
			func(int) int { return n }, true, serve.StoreOK},
		// A torn write is a crash of the persistence layer: the tail is
		// damaged, subsequent appends refuse (ErrBroken), and the restart
		// serves the last version before the tear.
		{"tear-write", func(fp *Failpoints, p int) { fp.TearWrite(p) },
			func(p int) int { return p - 1 }, true, serve.StoreDegraded},
		// Latent CRC corruption: the first process sees every append succeed,
		// but replay stops at the bad frame — the corrupted publish AND the
		// good frames behind it are unreachable (frames are not
		// self-synchronizing). The restart serves the last version before it.
		{"corrupt-crc", func(fp *Failpoints, p int) { fp.CorruptCRC(p) },
			func(p int) int { return p - 1 }, false, serve.StoreOK},
	}
	for _, tc := range cases {
		for point := 2; point <= 3; point++ {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				fp := &Failpoints{}
				st := openT(t, Options{Dir: dir, failpoints: fp})
				reg := newCrashRegistry(t, st)
				tc.arm(fp, point)
				for v := 1; v <= n; v++ {
					publishVersion(t, reg, v)
				}
				if fp.Fired() == 0 {
					t.Fatal("failpoint never fired")
				}
				// RAM serving never regresses, whatever the disk does.
				cur, err := reg.Get(crashModel)
				if err != nil || cur.Version != n {
					t.Fatalf("live process serves v%d (err %v), want v%d", cur.Version, err, n)
				}
				if got := reg.StoreErrors() > 0; got != tc.wantErrs {
					t.Fatalf("StoreErrors observed=%v (count %d), want %v", got, reg.StoreErrors(), tc.wantErrs)
				}
				if got := reg.StoreStatus(); got != tc.wantFinal {
					t.Fatalf("StoreStatus = %q after all publishes, want %q", got, tc.wantFinal)
				}
				st.Close()

				_, reg2 := reopenAndRecover(t, dir)
				want := tc.wantCur(point)
				cur2, err := reg2.Get(crashModel)
				if err != nil {
					t.Fatalf("restart serves nothing: %v", err)
				}
				if cur2.Version != want {
					t.Fatalf("restart serves v%d, want v%d (fault %s at publish %d)",
						cur2.Version, want, tc.name, point)
				}
				// The weights are the ones published under that version.
				if got := cur2.Backend.Params()[0].Value.At(0, 0); got != float64(want) {
					t.Fatalf("recovered v%d carries weight stamp %v, want %v", cur2.Version, got, want)
				}
				if cur2.Meta == nil || cur2.Meta.Round != want {
					t.Fatalf("recovered v%d lost provenance: %+v", cur2.Version, cur2.Meta)
				}
			})
		}
	}
}

// TestKillRecoverSkipsLostVersionInHistory pins down the clean-failure
// shape: the lost version is a hole in the recovered history, not a shifted
// numbering.
func TestKillRecoverSkipsLostVersionInHistory(t *testing.T) {
	dir := t.TempDir()
	fp := &Failpoints{}
	st := openT(t, Options{Dir: dir, failpoints: fp})
	reg := newCrashRegistry(t, st)
	fp.FailWrite(2)
	for v := 1; v <= 4; v++ {
		publishVersion(t, reg, v)
	}
	st.Close()

	_, reg2 := reopenAndRecover(t, dir)
	for _, v := range []int{1, 3, 4} {
		if _, err := reg2.GetVersion(crashModel, v); err != nil {
			t.Fatalf("durable v%d missing after restart: %v", v, err)
		}
	}
	if _, err := reg2.GetVersion(crashModel, 2); err == nil {
		t.Fatal("v2 was never durable but recovered anyway")
	}
}

// TestRegistryDegradesAndRecoversWithRealStore drives the runtime
// graceful-degradation drill end to end on the WAL store: the disk fills,
// publishes keep succeeding in RAM with the degraded flag up, the disk
// recovers, and the flag clears on the next good append — no restart.
func TestRegistryDegradesAndRecoversWithRealStore(t *testing.T) {
	dir := t.TempDir()
	fp := &Failpoints{}
	st := openT(t, Options{Dir: dir, failpoints: fp})
	reg := newCrashRegistry(t, st)

	publishVersion(t, reg, 1)
	if got := reg.StoreStatus(); got != serve.StoreOK {
		t.Fatalf("StoreStatus = %q, want ok", got)
	}
	fp.SetDiskFull(true)
	publishVersion(t, reg, 2)
	publishVersion(t, reg, 3)
	if got := reg.StoreStatus(); got != serve.StoreDegraded {
		t.Fatalf("StoreStatus = %q with disk full, want degraded", got)
	}
	if reg.StoreErrors() != 2 {
		t.Fatalf("StoreErrors = %d, want 2", reg.StoreErrors())
	}
	if cur, err := reg.Get(crashModel); err != nil || cur.Version != 3 {
		t.Fatalf("degraded registry serves v%d (err %v), want v3", cur.Version, err)
	}
	fp.SetDiskFull(false)
	publishVersion(t, reg, 4)
	if got := reg.StoreStatus(); got != serve.StoreOK {
		t.Fatalf("StoreStatus = %q after disk recovered, want ok", got)
	}
	st.Close()

	_, reg2 := reopenAndRecover(t, dir)
	cur, err := reg2.Get(crashModel)
	if err != nil || cur.Version != 4 {
		t.Fatalf("restart serves v%d (err %v), want v4", cur.Version, err)
	}
	// v2 and v3 were published into the outage; only v1 and v4 are durable.
	if _, err := reg2.GetVersion(crashModel, 2); err == nil {
		t.Fatal("v2 recovered despite the outage")
	}
}

// TestCoordinatorKillRecoverWithWALStore runs the federated coordinator
// against the real store, restarts everything from the data dir, and
// asserts the resumed run continues the round numbering (never round 0)
// with the recovered model still serving. Under -race this doubles as the
// store/registry/coordinator concurrency check.
func TestCoordinatorKillRecoverWithWALStore(t *testing.T) {
	fb, err := data.GenerateFedBench(data.FedBenchConfig{Samples: 400, Classes: 3, Dim: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.ShardIID(rand.New(rand.NewSource(12)), trX, trY, 4)
	if err != nil {
		t.Fatal(err)
	}
	factory := federated.ModelFactory(func() (*nn.Sequential, error) {
		rng := rand.New(rand.NewSource(13))
		return nn.NewSequential(nn.NewDense(rng, 6, 8), nn.NewReLU(), nn.NewDense(rng, 8, 3)), nil
	})
	cfg := func(reg *serve.Registry, st *Store, rounds int) fedserve.Config {
		return fedserve.Config{
			Factory: factory, Shards: shards, Classes: 3,
			EvalX: teX, EvalY: teY,
			Rounds: rounds, LocalEpochs: 1, LocalBatch: 16, LocalLR: 0.1,
			Seed: 14, Workers: 2,
			Registry: reg, Model: crashModel,
			Checkpoint: st,
		}
	}
	registerFed := func(t *testing.T, st *Store) *serve.Registry {
		reg := serve.NewRegistry()
		err := reg.Register(crashModel, func() (serve.Backend, error) {
			m, err := factory()
			if err != nil {
				return nil, err
			}
			return serve.NewDenseBackend(m)
		})
		if err != nil {
			t.Fatal(err)
		}
		reg.SetStore(st)
		return reg
	}

	dir := t.TempDir()
	st1 := openT(t, Options{Dir: dir})
	reg1 := registerFed(t, st1)
	coord1, err := fedserve.NewCoordinator(cfg(reg1, st1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord1.Start(); err != nil {
		t.Fatal(err)
	}
	coord1.Wait()
	coord1.Stop()
	st1close := st1.Close()
	if st1close != nil {
		t.Fatal(st1close)
	}

	st2 := openT(t, Options{Dir: dir})
	reg2 := registerFed(t, st2)
	if _, _, err := reg2.RecoverFrom(st2); err != nil {
		t.Fatalf("RecoverFrom: %v", err)
	}
	recovered, err := reg2.Get(crashModel)
	if err != nil {
		t.Fatalf("restart serves nothing: %v", err)
	}
	coord2, err := fedserve.NewCoordinator(cfg(reg2, st2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Stop()
	if sr := coord2.Status().StartRound; sr != 3 {
		t.Fatalf("resumed StartRound = %d, want 3 (never 0 when a checkpoint exists)", sr)
	}
	// The recovered version kept serving: construction did not republish.
	if cur, _ := reg2.Get(crashModel); cur.Version != recovered.Version {
		t.Fatalf("construction republished: v%d -> v%d", recovered.Version, cur.Version)
	}
	if err := coord2.Start(); err != nil {
		t.Fatal(err)
	}
	coord2.Wait()
	if r := coord2.Status().Round; r != 5 {
		t.Fatalf("resumed run ended at round %d, want 5", r)
	}
}
