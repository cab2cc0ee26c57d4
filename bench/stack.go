package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"time"

	"mobiledl/internal/cluster"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// nproc bounds both the load generator's connections and its goroutines.
func nproc() int { return runtime.GOMAXPROCS(0) }

// newTransport is the keep-alive transport every HTTP client of the
// benchmark uses (load generator and cluster forwarder alike): enough idle
// slots that a steady nproc-way load never redials.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        4 * nproc(),
		MaxIdleConnsPerHost: 2 * nproc(),
		IdleConnTimeout:     time.Minute,
	}
}

// stack is one assembled serving topology and the handles the benchmark
// measures it through. Everything in it is the program's own code wired
// through its public constructors; rec, when set, decorates the seams.
type stack struct {
	url        string          // where the load generator posts
	metricsURL string          // GET target for the Prometheus scrape
	client     *http.Client    // load generator's client
	handler    http.Handler    // the holder's Server.Handler, undecorated (ladder rung)
	rt         *serve.Runtime  // the holder's runtime
	reg        *serve.Registry // the holder's registry
	st         *store.Store    // the holder's store (nil when built without a data dir)
	persist    persistence     // st, possibly decorated
	closers    []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// listen serves h on a fresh loopback port and returns its host:port.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ErrorLog: slog.NewLogLogger(quiet.Handler(), slog.LevelError)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on close
	}()
	s.closers = append(s.closers, func() {
		_ = hs.Close()
		<-done
	})
	return ln.Addr().String(), nil
}

// denseFactory is the registry factory for the workload's architecture; the
// recovered weights overwrite whatever the seed drew.
func denseFactory(layers []int) serve.Factory {
	return func() (serve.Backend, error) { return serve.NewDenseBackend(buildNet(layers, 0)) }
}

// openRegistry opens the store in dir (skipped when dir is empty), and a
// registry that persists through it with the workload's factory registered.
func (s *stack) openRegistry(sp *spec, dir string, rec *recorder) error {
	s.reg = serve.NewRegistry()
	if err := s.reg.Register(modelName, denseFactory(sp.layers)); err != nil {
		return err
	}
	if dir == "" {
		return nil
	}
	st, err := store.Open(store.Options{Dir: dir, Logger: quiet})
	if err != nil {
		return err
	}
	s.st, s.persist = st, rec.store(st)
	s.closers = append(s.closers, func() { _ = st.Close() })
	s.reg.SetStore(s.persist)
	return nil
}

// serveModel attaches a runtime for the installed model and an HTTP server
// in front of it, in the workload's topology. The model must already be
// installed in s.reg.
func (s *stack) serveModel(sp *spec, rec *recorder) error {
	rt, err := serve.NewRuntime(serve.RuntimeConfig{
		Registry: s.reg, Model: modelName, Logger: quiet,
		Batch: serve.BatcherConfig{MaxBatch: sp.maxBatch},
	})
	if err != nil {
		return err
	}
	s.rt = rt
	srv := serve.NewServerWith(s.reg, serve.ServerConfig{Logger: quiet})
	srv.Add(rt)
	s.closers = append(s.closers, srv.Close)
	if s.st != nil {
		srv.AddMetricsSource(s.st.WriteMetrics)
	}
	s.handler = srv.Handler()
	s.client = &http.Client{Transport: rec.transport(spanClient, "", newTransport())}
	s.closers = append(s.closers, s.client.CloseIdleConnections)

	if !sp.forwarded {
		addr, err := s.listen(rec.handler(spanServe, spanClient, s.handler))
		if err != nil {
			return err
		}
		s.url, s.metricsURL = "http://"+addr+"/v1/predict", "http://"+addr+"/metrics"
		return nil
	}
	return s.cluster(srv, rec)
}

// Gossip settings of the two-node cluster. The first exchange happens at
// Start, so convergence does not wait for an interval; the suspicion window
// is far longer than a run so that a gossip tick delayed by a saturated CPU
// can never mark the holder dead and fail a forward.
const (
	gossipInterval = 250 * time.Millisecond
	suspectAfter   = 10 * time.Minute
)

// cluster puts the holder's server behind a cluster.Node and starts a
// second, model-less entry node seeded with the holder's address; the load
// goes to the entry node, so every predict crosses one forwarded hop.
func (s *stack) cluster(holderSrv *serve.Server, rec *recorder) error {
	// The listener must exist before the node (AdvertiseAddr is the bound
	// port), and the node before the handler, so the handler is late-bound.
	var holderH, entryH http.Handler
	holderAddr, err := s.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { holderH.ServeHTTP(w, r) }))
	if err != nil {
		return err
	}
	entryAddr, err := s.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { entryH.ServeHTTP(w, r) }))
	if err != nil {
		return err
	}
	holder, err := cluster.New(cluster.Config{
		NodeID: "holder", AdvertiseAddr: holderAddr, Inventory: s.reg.Inventory,
		GossipInterval: gossipInterval, SuspectAfter: suspectAfter, Logger: quiet,
		Client: &http.Client{Transport: newTransport()},
	})
	if err != nil {
		return err
	}
	holderSrv.AddMetricsSource(holder.WriteMetrics)
	holderH = holder.Handler(rec.handler(spanServe, spanRoundTrip, s.handler))

	entryReg := serve.NewRegistry()
	entrySrv := serve.NewServerWith(entryReg, serve.ServerConfig{Logger: quiet})
	s.closers = append(s.closers, entrySrv.Close)
	entryClient := &http.Client{Transport: rec.transport(spanRoundTrip, spanOrigin, newTransport())}
	s.closers = append(s.closers, entryClient.CloseIdleConnections)
	entry, err := cluster.New(cluster.Config{
		NodeID: "entry", AdvertiseAddr: entryAddr, Peers: []string{holderAddr}, Inventory: entryReg.Inventory,
		GossipInterval: gossipInterval, SuspectAfter: suspectAfter, Logger: quiet,
		Client: entryClient,
	})
	if err != nil {
		return err
	}
	entrySrv.AddMetricsSource(entry.WriteMetrics)
	entryH = rec.handler(spanOrigin, spanClient, entry.Handler(entrySrv.Handler()))

	holder.Start()
	entry.Start()
	s.closers = append(s.closers, holder.Stop, entry.Stop)
	s.url, s.metricsURL = "http://"+entryAddr+"/v1/predict", "http://"+entryAddr+"/metrics"

	// Converged means the entry node routes the model to the holder.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if route := entry.State().Routes[modelName]; len(route) == 1 && route[0] == "holder" {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster did not converge within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// buildServing assembles a serving workload's stack: model built from the
// seed, published through a store-backed registry in dir, runtime, server,
// listeners, and for predict_forwarded the converged two-node cluster.
func buildServing(sp *spec, net *nn.Sequential, dir string, rec *recorder) (*stack, error) {
	s := &stack{}
	err := s.openRegistry(sp, dir, rec)
	if err == nil {
		var backend *serve.DenseBackend
		if backend, err = serve.NewDenseBackend(net); err == nil {
			_, err = s.reg.InstallWithMeta(modelName, rec.backend(backend), nil)
		}
	}
	if err == nil {
		err = s.serveModel(sp, rec)
	}
	if err == nil && s.reg.StoreStatus() == serve.StoreDegraded {
		err = errors.New("model store degraded during set-up")
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("build %s stack: %w", sp.name, err)
	}
	return s, nil
}
