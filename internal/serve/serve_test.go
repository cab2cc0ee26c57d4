package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mobiledl/internal/mobile"
	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

func newPlainRuntime(t *testing.T, reg *Registry, name string, batch BatcherConfig) *Runtime {
	t.Helper()
	rt, err := NewRuntime(RuntimeConfig{Registry: reg, Model: name, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestRuntimeConcurrentLoadWithHotSwap(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("mlp", mlpFactory(1)); err != nil {
		t.Fatal(err)
	}
	blob, err := nn.EncodeWeights(mustDense(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("mlp", blob); err != nil {
		t.Fatal(err)
	}
	rt := newPlainRuntime(t, reg, "mlp", BatcherConfig{MaxBatch: 16, MaxDelay: time.Millisecond})

	// >= 64 concurrent in-flight requests while the model hot-swaps twice.
	const clients, perClient = 64, 6
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for k := 0; k < perClient; k++ {
				feats := make([]float64, 8)
				for j := range feats {
					feats[j] = rng.NormFloat64()
				}
				if _, err := rt.Predict(context.Background(), feats); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	swapped := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for i := 0; i < 2; i++ {
			time.Sleep(time.Millisecond)
			b, err := NewDenseBackend(mlpNet(int64(20 + i)))
			if err != nil {
				errCh <- err
				return
			}
			v, err := reg.Install("mlp", b)
			if err != nil {
				errCh <- err
				return
			}
			last = v
		}
		swapped <- last
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if v := <-swapped; v != 3 {
		t.Fatalf("expected 2 swaps on top of v1, got final version %d", v)
	}

	st := rt.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("stats counted %d requests, want %d", st.Requests, clients*perClient)
	}
	if st.Batches == 0 || st.BatchOccupancy < 1 {
		t.Fatalf("implausible batching stats: %+v", st)
	}
	if st.LatencyMs.P50 <= 0 || st.LatencyMs.P99 < st.LatencyMs.P50 {
		t.Fatalf("implausible latency summary: %+v", st.LatencyMs)
	}
}

func TestCascadeEarlyExitShortCircuit(t *testing.T) {
	mk := func(threshold float64) *Runtime {
		ee, err := newCascade(5)
		if err != nil {
			t.Fatal(err)
		}
		ee.Threshold = threshold
		b, err := NewCascadeBackend(ee)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		if _, err := reg.Install("cascade", b); err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(RuntimeConfig{
			Registry: reg, Model: "cascade",
			Batch: BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}

	feats := []float64{1, -1, 0.5, 0.25, -0.5, 2, -2, 1}

	// Threshold 0: every row clears the exit, the whole batch short-circuits
	// on-device — no offloads, no simulated traffic.
	rt := mk(0)
	res, err := rt.Predict(context.Background(), feats)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Local || res.SimNetMs != 0 {
		t.Fatalf("threshold 0 should exit locally with no traffic: %+v", res)
	}
	if res.Placement != mobile.PlaceSplit {
		t.Fatalf("cascade on WiFi should serve under the split placement, got %s", res.Placement)
	}
	st := rt.Stats()
	if st.Offloads != 0 || st.LocalExitFraction != 1 {
		t.Fatalf("short-circuited batch still offloaded: %+v", st)
	}

	// Threshold 1: softmax confidence is strictly below 1, so every row
	// offloads through the perturbed cloud half and pays the uplink.
	rt = mk(1)
	res, err = rt.Predict(context.Background(), feats)
	if err != nil {
		t.Fatal(err)
	}
	if res.Local || res.SimNetMs <= 0 {
		t.Fatalf("threshold 1 should offload with simulated traffic: %+v", res)
	}
	if got := rt.Stats(); got.LocalExits != 0 || got.Offloads != 1 {
		t.Fatalf("offload accounting: %+v", got)
	}
}

func TestCascadeOfflineFallsBackToLocal(t *testing.T) {
	ee, err := newCascade(5)
	if err != nil {
		t.Fatal(err)
	}
	ee.Threshold = 1 // would offload everything if a network existed
	b, err := NewCascadeBackend(ee)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Install("cascade", b); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "cascade",
		Batch: BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond},
		Net:   mobile.OfflineNetwork(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Predict(context.Background(), []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 1 means the exit never answers (Local=false), but offline
	// the cloud half runs on-device: local placement, zero traffic.
	if res.Placement != mobile.PlaceLocal || res.Local || res.SimNetMs != 0 {
		t.Fatalf("offline cascade must run fully on-device: %+v", res)
	}
	if st := rt.Stats(); st.Offloads != 0 || st.LocalExits != 0 {
		t.Fatalf("on-device rows must count as neither exits nor offloads: %+v", st)
	}
}

// TestConcurrentWorkersShareModel pins down that inference on a shared model
// is race-free: MaxBatch 1 with a wide worker pool maximizes overlapping
// Forward calls on the same layers (go test -race is the arbiter).
func TestConcurrentWorkersShareModel(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 13)); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "mlp",
		Batch: BatcherConfig{MaxBatch: 1, MaxDelay: time.Millisecond, Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			feats := make([]float64, 8)
			feats[c%8] = 1
			for k := 0; k < 8; k++ {
				if _, err := rt.Predict(context.Background(), feats); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPooledBuffersUnderConcurrentPredict drives 64 concurrent Predict
// callers through a cascade runtime, the configuration that exercises every
// pooled buffer in the stack (batch assembly, early-exit softmax scratch,
// representation and offload gathers). Each caller submits a fixed feature
// row and pins the class it receives on the first call: if recycled buffers
// ever leaked between concurrent batches, rows would cross-contaminate and
// a caller would see its answer flip. Run under -race via `make race`.
func TestPooledBuffersUnderConcurrentPredict(t *testing.T) {
	reg := NewRegistry()
	ee, err := newCascade(5)
	if err != nil {
		t.Fatal(err)
	}
	// Mid threshold: some rows exit locally, some offload — both gather
	// paths run. Zero out the perturbation so offloaded answers are
	// deterministic per row.
	ee.Threshold = 0.5
	ee.Pipeline.NullRate = 0
	ee.Pipeline.NoiseSigma = 0
	b, err := NewCascadeBackend(ee)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("cascade", b); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "cascade",
		Batch: BatcherConfig{MaxBatch: 16, MaxDelay: 200 * time.Microsecond, Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const clients, perClient = 64, 25
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			feats := make([]float64, 8)
			for j := range feats {
				feats[j] = rng.NormFloat64()
			}
			want := -1
			for k := 0; k < perClient; k++ {
				res, err := rt.Predict(context.Background(), feats)
				if err != nil {
					errCh <- err
					return
				}
				if want == -1 {
					want = res.Class
				} else if res.Class != want {
					errCh <- errResultFlip
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

var errResultFlip = errors.New("pooled buffers leaked between batches: same features produced different classes")

func TestHotSwapRejectsInterfaceChange(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Install("m", mustDense(t, 1)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	narrow, err := NewDenseBackend(nn.NewSequential(nn.NewDense(rng, 4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("m", narrow); err == nil {
		t.Fatal("swap changing input width must be rejected")
	}
	if got, _ := reg.Get("m"); got.Version != 1 {
		t.Fatalf("rejected swap must leave version 1 current, got v%d", got.Version)
	}
}

func TestPlainPlacementFollowsCostModel(t *testing.T) {
	// A big model on a slow device offloads to the cloud; verify the
	// backend both picks that placement and bills the simulated transfer.
	rng := rand.New(rand.NewSource(2))
	big, err := NewDenseBackend(nn.NewSequential(
		nn.NewDense(rng, 8, 512), nn.NewReLU(),
		nn.NewDense(rng, 512, 512), nn.NewReLU(),
		nn.NewDense(rng, 512, 4),
	))
	if err != nil {
		t.Fatal(err)
	}
	slow := mobile.MidrangePhone()
	slow.MACsPerSec = 1e6 // pathological device: cloud always wins
	env := NewExecEnv(slow, mobile.Device{}, mobile.Network{}, 1)
	br, err := big.RunBatch(context.Background(), env, tensor.New(1, 8), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res := br.Results[0]; res.Placement != mobile.PlaceCloud || res.SimNetMs <= 0 {
		t.Fatalf("slow device should offload to cloud with traffic: %+v", res)
	}
}

func TestServerHTTP(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 9)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	rt := newPlainRuntime(t, reg, "mlp", BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond})
	srv.Add(rt)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(PredictRequest{
		Model:    "mlp",
		Features: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}},
	})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Rows) != 2 {
		t.Fatalf("predict response: %+v", pr)
	}
	for _, row := range pr.Rows {
		if row.Class < 0 || row.Class >= 4 || row.ModelVersion != 1 {
			t.Fatalf("bad row: %+v", row)
		}
		if row.Probs != nil {
			t.Fatalf("default request must not carry probabilities: %+v", row)
		}
		if row.BatchSize < 1 {
			t.Fatalf("row missing batch breakdown: %+v", row)
		}
	}

	// Stats reflect the served rows.
	resp4, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var stats map[string]Stats
	if err := json.NewDecoder(resp4.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["mlp"].Requests != 2 {
		t.Fatalf("stats: %+v", stats["mlp"])
	}

	// Models listing shows the installed version and backend kind.
	resp5, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp5.Body.Close()
	var infos []ModelInfo
	if err := json.NewDecoder(resp5.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "mlp" || infos[0].Version != 1 || infos[0].Kind != "dense" {
		t.Fatalf("models: %+v", infos)
	}
}
