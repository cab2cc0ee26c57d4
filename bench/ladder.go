package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mobiledl/internal/mobile"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
	"mobiledl/internal/tensor"
)

// rung is one ladder measurement: cost per call of one public function.
type rung struct{ ns, allocs, bytes float64 }

// measure calls fn in five equal batches sized to fill budget and returns the
// median batch's time per call, with allocations averaged over all calls.
// The first, unmeasured call sizes the batches and warms pools and caches.
func measure(budget time.Duration, fn func() error) (rung, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return rung{}, err
	}
	const batches = 5
	n := int(budget / batches / max(time.Since(start), time.Nanosecond))
	n = min(max(n, 1), 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return rung{}, err
			}
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	runtime.ReadMemStats(&after)
	calls := float64(batches * n)
	return rung{
		ns:     median(per),
		allocs: float64(after.Mallocs-before.Mallocs) / calls,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / calls,
	}, nil
}

// timeEach calls fn n times and returns each call's time in ms — for calls
// slow enough (disk) that a per-call clock read costs nothing.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	ms := make([]float64, n)
	for i := range ms {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return ms, nil
}

// ladder measures the workload's own model and first request one layer at a
// time, outermost layer last, by sequential calls into the program's public
// functions. A layer's cost is the difference between adjacent rungs; the
// differences are reported alongside the rungs they come from.
func (r *run) ladder(net *nn.Sequential, in *inputs) error {
	if err := r.servingLadder(net, in); err != nil {
		return fmt.Errorf("serving ladder: %w", err)
	}
	if err := r.storeLadder(net); err != nil {
		return fmt.Errorf("store ladder: %w", err)
	}
	return nil
}

func (r *run) servingLadder(net *nn.Sequential, in *inputs) error {
	sp, m := r.sp, r.res.Metrics
	budget := r.o.share(shareLadderRung)
	rows := float64(sp.rows)
	batch, err := in.rows.SliceRows(0, sp.rows)
	if err != nil {
		return err
	}
	body := in.bodies[0]

	// Rung 1: the matmuls alone, at the model's shapes.
	var weights, outs []*tensor.Matrix
	var macs int
	for _, l := range net.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			weights = append(weights, d.Weights().Value)
			outs = append(outs, tensor.New(sp.rows, d.Out()))
			macs += d.In() * d.Out()
		}
	}
	matmul, err := measure(budget, func() error {
		x := batch
		for i, w := range weights {
			if err := tensor.MatMulInto(outs[i], x, w); err != nil {
				return err
			}
			x = outs[i]
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("tensor.matmul_ns_per_row", matmul.ns/rows)
	m.put("tensor.matmul_macs_per_row", float64(macs))

	// Rung 2: the network's forward pass (adds bias, activation, allocation).
	forward, err := measure(budget, func() error {
		_, err := net.Forward(batch, false)
		return err
	})
	if err != nil {
		return err
	}
	m.put("nn.forward_ns_per_row", forward.ns/rows)

	// Rung 3: the serving backend (adds placement planning and results).
	backend, err := serve.NewDenseBackend(net)
	if err != nil {
		return err
	}
	env := serve.NewExecEnv(mobile.Device{}, mobile.Device{}, mobile.Network{}, r.o.seed) // zero values: the runtime's defaults
	runBatch, err := measure(budget, func() error {
		_, err := backend.RunBatch(context.Background(), env, batch, serve.RequestOptions{})
		return err
	})
	if err != nil {
		return err
	}
	m.put("serve.backend.runbatch_ns_per_row", runBatch.ns/rows)

	// Rungs 4-6 share one storeless stack in the workload's batcher setting.
	plain := *sp
	plain.forwarded = false
	st, err := buildServing(&plain, net, "", nil)
	if err != nil {
		return err
	}
	defer st.close()

	// Rung 4: Runtime.Predict, one call per row, concurrently when the
	// request has several rows (sequential rows would each wait out the
	// batcher's flush timer).
	errs := make([]error, sp.rows)
	predict, err := measure(budget, func() error {
		if sp.rows == 1 {
			_, err := st.rt.Predict(context.Background(), batch.Row(0))
			return err
		}
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = st.rt.Predict(context.Background(), batch.Row(i))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("serve.runtime.predict_ns_per_req", predict.ns)
	m.put("serve.runtime.predict_allocs_per_req", predict.allocs)
	m.put("serve.batcher.dispatch_ns_per_req", predict.ns-runBatch.ns)

	// Rung 5: the HTTP handler with no socket (adds JSON both ways, the row
	// fan-out, admission). The request and the response writer are the
	// barest net/http allows, so that the rung holds the handler's work and
	// not a test recorder's.
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", nil)
	if err != nil {
		return err
	}
	var w sink
	handler, err := measure(budget, func() error {
		req.Body = io.NopCloser(bytes.NewReader(body))
		w = sink{header: w.header, body: w.body[:0]}
		clear(w.header)
		st.handler.ServeHTTP(&w, req)
		if w.status != 0 && w.status != http.StatusOK {
			return fmt.Errorf("handler answered %d: %.120s", w.status, w.body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("serve.server.handler_ns_per_req", handler.ns)
	m.put("serve.server.handler_allocs_per_req", handler.allocs)
	m.put("serve.server.handler_bytes_per_req", handler.bytes)
	m.put("serve.server.edge_ns_per_req", handler.ns-predict.ns)

	// Rung 6: the same request over loopback TCP (adds net/http both sides).
	loopback, err := measure(budget, func() error { return post(st.client, st.url, body) })
	if err != nil {
		return err
	}
	m.put("http.loopback_ns_per_req", loopback.ns-handler.ns)

	// Rung 7: the same request through the entry node of a two-node cluster.
	hop := *sp
	hop.forwarded = true
	fw, err := buildServing(&hop, net, "", nil)
	if err != nil {
		return err
	}
	defer fw.close()
	forwarded, err := measure(budget, func() error { return post(fw.client, fw.url, body) })
	if err != nil {
		return err
	}
	m.put("cluster.hop_ns_per_req", forwarded.ns-loopback.ns)
	m.put("cluster.hop_allocs_per_req", forwarded.allocs-loopback.allocs)
	return nil
}

// sink is an in-memory http.ResponseWriter.
type sink struct {
	header http.Header
	body   []byte
	status int
}

func (s *sink) Header() http.Header {
	if s.header == nil {
		s.header = make(http.Header)
	}
	return s.header
}
func (s *sink) Write(b []byte) (int, error) { s.body = append(s.body, b...); return len(b), nil }
func (s *sink) WriteHeader(status int)      { s.status = status }

// post sends one predict and discards the answer: the ladder times the
// program, not the load generator's checking.
func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// ladderBytes bounds what the store rungs write: the call count shrinks as
// the weight blob grows, between 3 and 12 calls per rung.
const ladderBytes = 32 << 20

// storeLadder walks the publish and recovery path with the workload's
// weights: codec, append without and with fsync, checkpoint, reopen, and the
// registry's install and recover.
func (r *run) storeLadder(net *nn.Sequential) error {
	sp, m := r.sp, r.res.Metrics
	budget := r.o.share(shareLadderRung)

	var blob []byte
	encode, err := measure(budget, func() (err error) {
		blob, err = nn.EncodeWeights(net)
		return err
	})
	if err != nil {
		return err
	}
	fresh := buildNet(sp.layers, 0)
	decode, err := measure(budget, func() error { return nn.DecodeWeights(fresh, blob) })
	if err != nil {
		return err
	}
	m.put("nn.encode_weights_ns", encode.ns)
	m.put("nn.decode_weights_ns", decode.ns)
	m.put("nn.weights_bytes", float64(len(blob)))

	n := min(max(ladderBytes/len(blob), 3), 12)
	record := func(i int) serve.PublishRecord {
		return serve.PublishRecord{Model: modelName, Version: i + 1, Kind: "dense", Weights: blob}
	}
	// Compaction is off in both stores so that every call is one append.
	unsynced, err := store.Open(store.Options{Dir: r.dataDir(), NoSync: true, CompactEvery: -1, Logger: quiet})
	if err != nil {
		return err
	}
	defer unsynced.Close()
	nosync, err := timeEach(n, func(i int) error { return unsynced.AppendPublish(record(i)) })
	if err != nil {
		return err
	}
	dir := r.dataDir()
	synced, err := store.Open(store.Options{Dir: dir, CompactEvery: -1, Logger: quiet})
	if err != nil {
		return err
	}
	defer synced.Close()
	withSync, err := timeEach(n, func(i int) error { return synced.AppendPublish(record(i)) })
	if err != nil {
		return err
	}
	checkpoint, err := timeEach(n, func(int) error { return synced.SaveCheckpoint("ladder", blob) })
	if err != nil {
		return err
	}
	m.put("store.append_nosync_ns", median(nosync)*1e6)
	m.put("store.fsync_ms_est", median(withSync)-median(nosync))
	m.put("store.save_checkpoint_ms_p50", median(checkpoint))

	// Recovery side: reopen what the synced store wrote, then replay it into
	// a registry.
	if err := synced.Close(); err != nil {
		return err
	}
	var reopened *store.Store
	open, err := timeEach(n, func(int) error {
		if reopened != nil {
			_ = reopened.Close()
		}
		reopened, err = store.Open(store.Options{Dir: dir, CompactEvery: -1, Logger: quiet})
		return err
	})
	if err != nil {
		return err
	}
	defer reopened.Close()
	replay, err := timeEach(n, func(int) error {
		reg := serve.NewRegistry()
		if err := reg.Register(modelName, denseFactory(sp.layers)); err != nil {
			return err
		}
		restored, _, err := reg.RecoverFrom(reopened)
		if err == nil && restored == 0 {
			err = fmt.Errorf("nothing recovered from %s", dir)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.put("store.open_ms_p50", median(open))
	m.put("serve.registry.recover_ms_p50", median(replay))

	backend, err := serve.NewDenseBackend(net)
	if err != nil {
		return err
	}
	reg := serve.NewRegistry()
	install, err := measure(budget, func() error {
		_, err := reg.InstallWithMeta(modelName, backend, nil)
		return err
	})
	if err != nil {
		return err
	}
	m.put("serve.registry.install_ns", install.ns)
	return nil
}
