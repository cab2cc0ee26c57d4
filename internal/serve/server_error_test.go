package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobiledl/internal/leakcheck"
	"mobiledl/internal/wire"
)

// newErrorTestServer serves one dense model and returns the test server plus
// its runtime (for Close-path tests).
func newErrorTestServer(t *testing.T) (*httptest.Server, *Runtime) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Install("mlp", mustDense(t, 9)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	rt, err := NewRuntime(RuntimeConfig{
		Registry: reg, Model: "mlp",
		Batch: BatcherConfig{MaxBatch: 4, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv.Add(rt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, rt
}

func postPredict(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, map[string]string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&payload)
	return resp, payload
}

func TestPredictBadJSONIs400(t *testing.T) {
	ts, _ := newErrorTestServer(t)
	resp, payload := postPredict(t, ts, []byte(`{"model": "mlp", "features": [[1,2`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: status %d, want 400", resp.StatusCode)
	}
	if payload["error"] == "" {
		t.Fatal("error body missing")
	}
	resp, _ = postPredict(t, ts, []byte(`not json at all`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON body: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postPredict(t, ts, []byte(`{"model":"mlp","features":"oops"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-typed features: status %d, want 400", resp.StatusCode)
	}
}

func TestPredictOversizedBodyIs400(t *testing.T) {
	ts, _ := newErrorTestServer(t)
	// A syntactically valid body bigger than wire.MaxBodyBytes: the body
	// reader refuses it, which must surface as 400, not 500.
	var sb strings.Builder
	sb.WriteString(`{"model":"mlp","features":[[`)
	for sb.Len() < wire.MaxBodyBytes+1024 {
		sb.WriteString("1.2345678901234567,")
	}
	sb.WriteString(`1]]}`)
	resp, _ := postPredict(t, ts, []byte(sb.String()))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

func TestPredictWrongFeatureWidthIs400(t *testing.T) {
	ts, _ := newErrorTestServer(t)
	body, _ := json.Marshal(PredictRequest{Model: "mlp", Features: [][]float64{{1, 2}}})
	resp, payload := postPredict(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim mismatch: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(payload["error"], "features") {
		t.Fatalf("error should name the feature mismatch: %q", payload["error"])
	}
	// Empty feature list is also a client error.
	body, _ = json.Marshal(PredictRequest{Model: "mlp"})
	if resp, _ := postPredict(t, ts, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no rows: status %d, want 400", resp.StatusCode)
	}
}

func TestPredictUnknownModelIs404(t *testing.T) {
	ts, _ := newErrorTestServer(t)
	body, _ := json.Marshal(PredictRequest{Model: "nope", Features: [][]float64{{1}}})
	resp, _ := postPredict(t, ts, body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}
}

func TestPredictUnknownVersionPinIs400(t *testing.T) {
	ts, _ := newErrorTestServer(t)
	row := [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}}
	body, _ := json.Marshal(PredictRequest{
		Model: "mlp", Features: row, Options: RequestOptions{Version: 42},
	})
	resp, payload := postPredict(t, ts, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown version pin: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(payload["error"], "version") {
		t.Fatalf("error should name the version: %q", payload["error"])
	}
	// Negative options are client errors too.
	body, _ = json.Marshal(PredictRequest{
		Model: "mlp", Features: row, Options: RequestOptions{TopK: -3},
	})
	if resp, _ := postPredict(t, ts, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative top_k: status %d, want 400", resp.StatusCode)
	}
}

func TestPredictAfterCloseIs503(t *testing.T) {
	leakcheck.Check(t)
	ts, rt := newErrorTestServer(t)
	rt.Close()
	body, _ := json.Marshal(PredictRequest{
		Model: "mlp", Features: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}},
	})
	resp, _ := postPredict(t, ts, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict after Close: status %d, want 503", resp.StatusCode)
	}
}
