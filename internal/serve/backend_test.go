package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mobiledl/internal/baselines"
	"mobiledl/internal/mobile"
	"mobiledl/internal/tensor"
)

// tensorFromRows copies a row-slice dataset into a matrix.
func tensorFromRows(rows [][]float64) *tensor.Matrix {
	m := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// trainedForest fits a small random forest on 8-feature, 4-class blobs so
// its serving interface matches the test MLP and cascade.
func trainedForest(t *testing.T) *baselines.RandomForest {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const n, dim, classes = 160, 8, 4
	x := make([][]float64, 0, n)
	labels := make([]int, 0, n)
	for i := 0; i < n; i++ {
		c := i % classes
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(c) + 0.3*rng.NormFloat64()
		}
		x = append(x, row)
		labels = append(labels, c)
	}
	m := tensorFromRows(x)
	forest := baselines.NewRandomForest()
	forest.NumTrees = 10
	if err := forest.Fit(m, labels, classes); err != nil {
		t.Fatal(err)
	}
	return forest
}

// TestAllBackendKindsThroughOneServer is the redesign's acceptance test: a
// baselines forest, a plain nn.Sequential, and a split/early-exit cascade
// are registered and served through the same Runtime/HTTP path, with the
// top_k and version request options honored per model.
func TestAllBackendKindsThroughOneServer(t *testing.T) {
	reg := NewRegistry()

	dense := mustDense(t, 9)
	if _, err := reg.Install("mlp", dense); err != nil {
		t.Fatal(err)
	}
	ee, err := newCascade(5)
	if err != nil {
		t.Fatal(err)
	}
	ee.Threshold = 0.5
	cb, err := NewCascadeBackend(ee)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("cascade", cb); err != nil {
		t.Fatal(err)
	}
	bb, err := NewBaselineBackend(trainedForest(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install("forest", bb); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(reg)
	for _, name := range []string{"mlp", "cascade", "forest"} {
		rt, err := NewRuntime(RuntimeConfig{
			Registry: reg, Model: name,
			Batch: BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond},
		})
		if err != nil {
			t.Fatalf("%s runtime: %v", name, err)
		}
		srv.Add(rt)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The registry lists one model per backend kind.
	kinds := map[string]string{}
	for _, info := range reg.Snapshot() {
		kinds[info.Name] = info.Kind
	}
	want := map[string]string{"mlp": "dense", "cascade": "cascade", "forest": "baseline"}
	for name, kind := range want {
		if kinds[name] != kind {
			t.Fatalf("model %q listed as %q, want %q (all: %v)", name, kinds[name], kind, kinds)
		}
	}

	// Every kind answers the same request shape through the same HTTP path,
	// honoring top_k.
	feats := [][]float64{{1, -1, 0.5, 0.25, -0.5, 2, -2, 1}, {2, 2, 2, 2, 2, 2, 2, 2}}
	for name := range want {
		body, _ := json.Marshal(PredictRequest{
			Model: name, Features: feats, Options: RequestOptions{TopK: 3},
		})
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s predict status %d", name, resp.StatusCode)
		}
		if len(pr.Rows) != len(feats) {
			t.Fatalf("%s: %d rows answered for %d sent", name, len(pr.Rows), len(feats))
		}
		for i, row := range pr.Rows {
			if row.Class < 0 || row.Class >= 4 {
				t.Fatalf("%s row %d: class %d out of range", name, i, row.Class)
			}
			if len(row.Probs) != 3 {
				t.Fatalf("%s row %d: top_k=3 returned %d probs", name, i, len(row.Probs))
			}
			if row.Probs[0].Class != row.Class {
				t.Fatalf("%s row %d: top prob class %d != predicted %d", name, i, row.Probs[0].Class, row.Class)
			}
			sum := 0.0
			for k, cp := range row.Probs {
				if cp.Prob < 0 || cp.Prob > 1 {
					t.Fatalf("%s row %d: prob %v out of [0,1]", name, i, cp.Prob)
				}
				if k > 0 && cp.Prob > row.Probs[k-1].Prob+1e-12 {
					t.Fatalf("%s row %d: probs not descending: %+v", name, i, row.Probs)
				}
				sum += cp.Prob
			}
			if sum > 1+1e-6 {
				t.Fatalf("%s row %d: top-3 probs sum to %v > 1", name, i, sum)
			}
			if row.ModelVersion != 1 {
				t.Fatalf("%s row %d: version %d, want 1", name, i, row.ModelVersion)
			}
		}
	}

	// Hot-swap the dense model, then pin a request back to version 1.
	if _, err := reg.Install("mlp", mustDense(t, 31)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version  int
		wantVers int
	}{{0, 2}, {1, 1}, {2, 2}} {
		body, _ := json.Marshal(PredictRequest{
			Model: "mlp", Features: feats[:1], Options: RequestOptions{Version: tc.version},
		})
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pin %d: status %d", tc.version, resp.StatusCode)
		}
		if pr.Rows[0].ModelVersion != tc.wantVers {
			t.Fatalf("pin %d answered by v%d, want v%d", tc.version, pr.Rows[0].ModelVersion, tc.wantVers)
		}
	}
}

// TestCascadeNoPerturbOption pins the no_perturb knob: with perturbation
// disabled, offloaded rows are deterministic (the only randomness in the
// cascade path is the DP perturbation) but still pay the simulated uplink.
func TestCascadeNoPerturbOption(t *testing.T) {
	ee, err := newCascade(5)
	if err != nil {
		t.Fatal(err)
	}
	ee.Threshold = 1 // every row offloads
	ee.Pipeline.NoiseSigma = 50
	ee.Pipeline.NullRate = 0.9
	cb, err := NewCascadeBackend(ee)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Install("cascade", cb); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "cascade",
		Batch: BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	feats := []float64{1, -1, 0.5, 0.25, -0.5, 2, -2, 1}
	want := -1
	for i := 0; i < 10; i++ {
		res, err := rt.PredictWith(context.Background(), feats, RequestOptions{NoPerturb: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Local {
			t.Fatalf("threshold 1 must offload: %+v", res)
		}
		if res.SimNetMs <= 0 {
			t.Fatalf("no_perturb must still pay the simulated uplink: %+v", res)
		}
		if res.Placement != mobile.PlaceSplit {
			t.Fatalf("placement %s, want split", res.Placement)
		}
		if want == -1 {
			want = res.Class
		} else if res.Class != want {
			t.Fatalf("no_perturb answers flipped: %d then %d", want, res.Class)
		}
	}
}

// TestBaselineBackendValidation covers the construction contract.
func TestBaselineBackendValidation(t *testing.T) {
	if _, err := NewBaselineBackend(nil, 8); err == nil {
		t.Fatal("nil classifier must be rejected")
	}
	if _, err := NewBaselineBackend(baselines.NewRandomForest(), 8); err == nil {
		t.Fatal("unfitted classifier must be rejected")
	}
	forest := trainedForest(t)
	if _, err := NewBaselineBackend(forest, 0); err == nil {
		t.Fatal("zero input dim must be rejected")
	}
	// A width narrower than the fitted feature count must fail at
	// construction (the probe), not panic a batcher worker at serve time.
	if _, err := NewBaselineBackend(forest, 3); err == nil {
		t.Fatal("input dim narrower than the fitted features must be rejected")
	}
	b, err := NewBaselineBackend(forest, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Params() != nil {
		t.Fatal("baseline backends carry no tensor parameters")
	}
	info := b.Describe()
	if info.Kind != "baseline" || info.Classes != 4 || info.InputDim != 8 || info.Algorithm == "" {
		t.Fatalf("baseline info: %+v", info)
	}
	// And the registry refuses to Load weights into one.
	reg := NewRegistry()
	if err := reg.Register("f", func() (Backend, error) { return b, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("f", nil); err == nil {
		t.Fatal("weight load into a param-less backend must fail")
	}
	if _, err := reg.Install("f2", b); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Checkpoint("f2"); err == nil {
		t.Fatal("checkpoint of a param-less backend must fail")
	}
}

// TestTopKClampsToClasses: asking for more classes than exist returns all of
// them, summing to ~1.
func TestTopKClampsToClasses(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 3)); err != nil {
		t.Fatal(err)
	}
	rt := newPlainRuntime(t, reg, "mlp", BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond})
	res, err := rt.PredictWith(context.Background(), []float64{1, 2, 3, 4, 5, 6, 7, 8}, RequestOptions{TopK: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probs) != 4 {
		t.Fatalf("top_k=99 on a 4-class model returned %d probs", len(res.Probs))
	}
	sum := 0.0
	for _, cp := range res.Probs {
		sum += cp.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("full distribution sums to %v", sum)
	}
}
