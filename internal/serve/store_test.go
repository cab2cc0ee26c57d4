package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mobiledl/internal/nn"
)

// stubStore is the in-package Store double: it records appends, replays
// canned publishes, streams canned backup bytes, and fails on demand. The
// real WAL store is exercised against the registry in internal/store's
// crash suite; these tests pin the registry/server side of the seam.
type stubStore struct {
	mu      sync.Mutex
	recs    []PublishRecord
	failing bool
	backup  []byte
}

var errStubStore = errors.New("stub store down")

func (s *stubStore) AppendPublish(rec PublishRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failing {
		return errStubStore
	}
	s.recs = append(s.recs, rec)
	return nil
}

func (s *stubStore) Publishes() []PublishRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]PublishRecord(nil), s.recs...)
}

func (s *stubStore) Backup(w io.Writer) (int64, error) {
	n, err := w.Write(s.backup)
	return int64(n), err
}

func (s *stubStore) setFailing(on bool) {
	s.mu.Lock()
	s.failing = on
	s.mu.Unlock()
}

func TestRegistryPersistsParamBearingPublishes(t *testing.T) {
	st := &stubStore{}
	reg := NewRegistry()
	reg.SetStore(st)
	if _, err := reg.Install("mlp", mustDense(t, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.InstallWithMeta("mlp", mustDense(t, 4), &VersionMeta{Source: "fedserve", Round: 7, Accuracy: 0.9}); err != nil {
		t.Fatal(err)
	}
	recs := st.Publishes()
	if len(recs) != 2 {
		t.Fatalf("store saw %d appends, want 2", len(recs))
	}
	if recs[0].Model != "mlp" || recs[0].Version != 1 || recs[1].Version != 2 {
		t.Fatalf("records misnumbered: %+v", recs)
	}
	if recs[1].Meta == nil || recs[1].Meta.Round != 7 {
		t.Fatalf("provenance not persisted: %+v", recs[1].Meta)
	}
	if len(recs[1].Weights) == 0 {
		t.Fatal("weights blob not persisted")
	}
	// The blob is the installed version's weights, loadable as-is.
	b := mustDense(t, 99)
	if err := nn.DecodeWeights(b, recs[1].Weights); err != nil {
		t.Fatalf("persisted weights do not load: %v", err)
	}
	if reg.StoreStatus() != StoreOK {
		t.Fatalf("StoreStatus = %q, want ok", reg.StoreStatus())
	}
}

func TestRegistryRecoverFromReplaysPublishes(t *testing.T) {
	// Fabricate a store holding two versions of a registered model plus one
	// record for a model with no factory (its architecture is not code here).
	mkBlob := func(t *testing.T, seed int64) []byte {
		t.Helper()
		blob, err := nn.EncodeWeights(mustDense(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	st := &stubStore{recs: []PublishRecord{
		{Model: "mlp", Version: 1, Kind: "dense", Weights: mkBlob(t, 1), At: time.Unix(100, 0)},
		{Model: "mlp", Version: 2, Kind: "dense", Meta: &VersionMeta{Source: "fedserve", Round: 5}, Weights: mkBlob(t, 2), At: time.Unix(200, 0)},
		{Model: "ghost", Version: 1, Kind: "dense", Weights: mkBlob(t, 3), At: time.Unix(300, 0)},
	}}
	reg := NewRegistry()
	if err := reg.Register("mlp", mlpFactory(50)); err != nil {
		t.Fatal(err)
	}
	reg.SetStore(st)
	restored, skipped, err := reg.RecoverFrom(st)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 || skipped != 1 {
		t.Fatalf("restored=%d skipped=%d, want 2 and 1", restored, skipped)
	}
	cur, err := reg.Get("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 || cur.Meta == nil || cur.Meta.Round != 5 {
		t.Fatalf("recovered current = v%d meta %+v, want v2 round 5", cur.Version, cur.Meta)
	}
	if _, err := reg.GetVersion("mlp", 1); err != nil {
		t.Fatalf("recovered history missing v1: %v", err)
	}
	if _, err := reg.Get("ghost"); err == nil {
		t.Fatal("factory-less model recovered anyway")
	}
	// The version counter continues past the recovered history: the next
	// install is v3, and it is appended to the store like any publish.
	v, err := reg.Install("mlp", mustDense(t, 51))
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("post-recovery install = v%d, want v3", v)
	}
	if recs := st.Publishes(); recs[len(recs)-1].Version != 3 {
		t.Fatalf("post-recovery publish not persisted: %+v", recs[len(recs)-1])
	}
}

// TestRecoverFromRejectsCorruptWeights: a record whose weights no longer
// fit the factory's architecture (here: a truncated blob) aborts recovery
// rather than serving a silently wrong model.
func TestRecoverFromRejectsCorruptWeights(t *testing.T) {
	blob, err := nn.EncodeWeights(mustDense(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := &stubStore{recs: []PublishRecord{
		{Model: "mlp", Version: 1, Kind: "dense", Weights: blob[:len(blob)/2], At: time.Unix(100, 0)},
	}}
	reg := NewRegistry()
	if err := reg.Register("mlp", mlpFactory(50)); err != nil {
		t.Fatal(err)
	}
	reg.SetStore(st)
	if _, _, err := reg.RecoverFrom(st); err == nil {
		t.Fatal("RecoverFrom accepted a truncated weights blob")
	}
}

// TestRecoverFromRefusesPreV1Weights: a data dir written before the v1
// weights format fails recovery with nn.ErrWeightsFormat and a message that
// names the cause, instead of the generic mismatch.
func TestRecoverFromRefusesPreV1Weights(t *testing.T) {
	old, err := os.ReadFile("../nn/testdata/weights_gob_2x2.bin")
	if err != nil {
		t.Fatal(err)
	}
	st := &stubStore{recs: []PublishRecord{
		{Model: "mlp", Version: 1, Kind: "dense", Weights: old, At: time.Unix(100, 0)},
	}}
	reg := NewRegistry()
	if err := reg.Register("mlp", mlpFactory(50)); err != nil {
		t.Fatal(err)
	}
	_, _, err = reg.RecoverFrom(st)
	if !errors.Is(err, nn.ErrWeightsFormat) || !strings.Contains(err.Error(), "predates format v1") {
		t.Fatalf("RecoverFrom over a pre-v1 blob: err = %v, want ErrWeightsFormat naming the format", err)
	}
	if _, err := reg.Get("mlp"); err == nil {
		t.Fatal("a model was installed from a refused blob")
	}
}

// TestStoreFailureNeverFailsPredict is the graceful-degradation acceptance
// check at the HTTP layer: with the store persistently failing, publishes
// still succeed (RAM-only), predict traffic still flows, /healthz stays 200
// and reports the degradation, and /metrics counts the errors.
func TestStoreFailureNeverFailsPredict(t *testing.T) {
	st := &stubStore{}
	reg := NewRegistry()
	reg.SetStore(st)
	if _, err := reg.Install("mlp", mustDense(t, 9)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg)
	rt := newPlainRuntime(t, reg, "mlp", BatcherConfig{MaxBatch: 8, MaxDelay: time.Millisecond})
	srv.Add(rt)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	predict := func() int {
		body, _ := json.Marshal(PredictRequest{
			Model:    "mlp",
			Features: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}},
		})
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	healthz := func() (int, map[string]string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if code, body := healthz(); code != http.StatusOK || body["store"] != StoreOK {
		t.Fatalf("healthy healthz = %d %v", code, body)
	}

	// Disk dies. A hot-publish mid-outage succeeds in RAM.
	st.setFailing(true)
	v, err := reg.Install("mlp", mustDense(t, 10))
	if err != nil {
		t.Fatalf("publish during store outage failed: %v", err)
	}
	if v != 2 {
		t.Fatalf("outage publish = v%d, want v2", v)
	}
	if code := predict(); code != http.StatusOK {
		t.Fatalf("predict during store outage = %d, want 200", code)
	}
	code, body := healthz()
	if code != http.StatusOK {
		t.Fatalf("healthz during store outage = %d, want 200 (degraded persistence is not unready)", code)
	}
	if body["store"] != StoreDegraded || body["status"] != "ok" {
		t.Fatalf("healthz body during outage = %v", body)
	}
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	mtext := string(mb)
	if !strings.Contains(mtext, "mobiledl_store_errors_total 1") {
		t.Fatalf("metrics missing store error count:\n%s", mtext)
	}
	if !strings.Contains(mtext, "mobiledl_store_degraded 1") {
		t.Fatalf("metrics missing degraded gauge:\n%s", mtext)
	}

	// Disk recovers; the next publish clears the flag.
	st.setFailing(false)
	if _, err := reg.Install("mlp", mustDense(t, 11)); err != nil {
		t.Fatal(err)
	}
	if _, body := healthz(); body["store"] != StoreOK {
		t.Fatalf("healthz after recovery = %v", body)
	}
}

func TestBackupEndpointStreamsStore(t *testing.T) {
	st := &stubStore{backup: []byte("snapshot-bytes")}
	reg := NewRegistry()
	reg.SetStore(st)
	srv := NewServer(reg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/backup")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/backup = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("backup Content-Type = %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "snapshot-bytes" {
		t.Fatalf("backup body = %q", b)
	}

	// POST is not a backup.
	pr, err := http.Post(ts.URL+"/v1/backup", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/backup = %d, want 405", pr.StatusCode)
	}
}

func TestBackupEndpointWithoutStore404s(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/backup")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/backup without store = %d, want 404", resp.StatusCode)
	}
	// And /healthz says persistence is off, not broken.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var body map[string]string
	json.NewDecoder(hz.Body).Decode(&body)
	if body["store"] != StoreDisabled {
		t.Fatalf(`healthz store = %q without a store, want "disabled"`, body["store"])
	}
}
