package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
	"mobiledl/internal/tensor"
)

// Span names, one per decorated seam. A span's parent is the seam that
// called it; spans of one request share Req, spans of one round share Round.
const (
	spanClient     = "http.client"        // load generator's RoundTripper
	spanOrigin     = "cluster.handler"    // Node.Handler of the entry node
	spanRoundTrip  = "cluster.roundtrip"  // cluster.Config.Client of the entry node
	spanServe      = "serve.handler"      // Server.Handler (behind Node.Handler in a cluster)
	spanBackend    = "serve.backend"      // Backend.RunBatch; batch-level, carries Rows, no Req
	spanAppend     = "store.append"       // serve.Store.AppendPublish
	spanCheckpoint = "store.checkpoint"   // fedserve.CheckpointStore.SaveCheckpoint
	spanTrain      = "fedserve.train"     // federated.Trainer, one per client per round
	spanRound      = "fedserve.round"     // derived: between successive checkpoints
	spanLoop       = "fedserve.roundloop" // Coordinator.Start -> Wait
)

// reqHeader carries the load generator's request id. The cluster forwards
// only the headers it knows, so the id also rides in a W3C traceparent with
// the sampled flag clear: forwardTo passes that through verbatim and no
// tracer acts on it.
const reqHeader = "X-Bench-Req"

func setReqID(h http.Header, id uint64) {
	h.Set(reqHeader, strconv.FormatUint(id, 10))
	h.Set("traceparent", fmt.Sprintf("00-%032x-%016x-00", id, 1))
}

func reqID(h http.Header) uint64 {
	if v := h.Get(reqHeader); v != "" {
		id, _ := strconv.ParseUint(v, 10, 64)
		return id
	}
	if tp := h.Get("traceparent"); len(tp) >= 35 {
		id, _ := strconv.ParseUint(tp[19:35], 16, 64)
		return id
	}
	return 0
}

type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Round  int    `json:"round,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps the spans of one traced run in memory. A nil recorder is
// the untraced run: every wrap method then returns its argument unchanged,
// so the untraced stack contains no benchmark code at all.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span, start, end time.Time) {
	s.Start, s.End = int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) handler(name, parent string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, req)
		r.add(span{Name: name, Parent: parent, Req: reqID(req.Header)}, start, time.Now())
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func (r *recorder) transport(name, parent string, next http.RoundTripper) http.RoundTripper {
	if r == nil {
		return next
	}
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := next.RoundTrip(req)
		r.add(span{Name: name, Parent: parent, Req: reqID(req.Header)}, start, time.Now())
		return resp, err
	})
}

type tracedBackend struct {
	serve.Backend
	rec *recorder
}

func (b tracedBackend) RunBatch(ctx context.Context, env *serve.ExecEnv, batch *tensor.Matrix, opts serve.RequestOptions) (serve.BatchResult, error) {
	start := time.Now()
	res, err := b.Backend.RunBatch(ctx, env, batch, opts)
	b.rec.add(span{Name: spanBackend, Rows: batch.Rows()}, start, time.Now())
	return res, err
}

func (r *recorder) backend(b serve.Backend) serve.Backend {
	if r == nil {
		return b
	}
	return tracedBackend{Backend: b, rec: r}
}

// tracedStore decorates both seams *store.Store sits behind: the registry's
// serve.Store and the coordinator's fedserve.CheckpointStore.
type tracedStore struct {
	*store.Store
	rec *recorder
}

func (s tracedStore) AppendPublish(pr serve.PublishRecord) error {
	start := time.Now()
	err := s.Store.AppendPublish(pr)
	s.rec.add(span{Name: spanAppend, Parent: spanRound, Bytes: len(pr.Weights)}, start, time.Now())
	return err
}

func (s tracedStore) SaveCheckpoint(key string, payload []byte) error {
	start := time.Now()
	err := s.Store.SaveCheckpoint(key, payload)
	s.rec.add(span{Name: spanCheckpoint, Parent: spanRound, Bytes: len(payload)}, start, time.Now())
	return err
}

// persistence is what a stack hands the registry and the coordinator.
type persistence interface {
	serve.Store
	fedserve.CheckpointStore
}

func (r *recorder) store(st *store.Store) persistence {
	if r == nil {
		return st
	}
	return tracedStore{Store: st, rec: r}
}

func (r *recorder) trainer(t federated.Trainer) federated.Trainer {
	if r == nil {
		return t
	}
	return federated.ClientFunc(func(round, _ int, shard *data.ClientShard, global []*tensor.Matrix, seed int64) (federated.ClientResult, error) {
		start := time.Now()
		res, err := t.TrainClient(shard, global, seed)
		r.add(span{Name: spanTrain, Parent: spanRound, Round: round, Rows: shard.Size()}, start, time.Now())
		return res, err
	})
}

// named returns the recorded spans called name, in start order. Like every
// reader below it takes the lock: a handler decorator may still be adding its
// span just after the client has read the reply.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.namedLocked(name)
}

func (r *recorder) namedLocked(name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func spanMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// deriveRounds turns the checkpoint calls into round spans — round i runs
// from the previous checkpoint's end (the loop start for the first) to its
// own checkpoint's end — and stamps every append and checkpoint span with
// the round whose interval holds it, so selfMs can subtract them.
func (r *recorder) deriveRounds() {
	r.mu.Lock()
	defer r.mu.Unlock()
	loop := r.namedLocked(spanLoop)
	cks := r.namedLocked(spanCheckpoint)
	if len(loop) == 0 {
		return
	}
	var rounds []span
	prev := loop[0].Start
	for _, ck := range cks {
		if ck.Start < prev {
			continue
		}
		rounds = append(rounds, span{Name: spanRound, Parent: spanLoop, Start: prev, End: ck.End})
		prev = ck.End
	}
	// Trainer spans know their round number; the interval that holds the
	// first of them names the round.
	for _, t := range r.namedLocked(spanTrain) {
		i := sort.Search(len(rounds), func(i int) bool { return rounds[i].End > t.Start })
		if i < len(rounds) && rounds[i].Round == 0 {
			rounds[i].Round = t.Round
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name != spanAppend && s.Name != spanCheckpoint {
			continue
		}
		j := sort.Search(len(rounds), func(j int) bool { return rounds[j].End >= s.End })
		if j < len(rounds) && s.Start >= rounds[j].Start {
			s.Round = rounds[j].Round
		}
	}
	r.spans = append(r.spans, rounds...)
}

// selfMs returns, for every span called name that has an id, its duration
// minus the part of it that its child spans cover (children may overlap
// each other, as one round's clients do).
func (r *recorder) selfMs(name string) []float64 {
	type key struct {
		req   uint64
		round int
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[key][]span)
	for _, s := range r.spans {
		if s.Parent == name && (s.Req != 0 || s.Round != 0) {
			k := key{s.Req, s.Round}
			kids[k] = append(kids[k], s)
		}
	}
	var out []float64
	for _, p := range r.namedLocked(name) {
		if p.Req == 0 && p.Round == 0 {
			continue
		}
		cs := kids[key{p.Req, p.Round}]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out = append(out, float64(p.End-p.Start-covered)/1e6)
	}
	return out
}

// write dumps the spans as JSON for offline inspection.
func (r *recorder) write(path, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
