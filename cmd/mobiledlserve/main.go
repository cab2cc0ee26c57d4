// Command mobiledlserve runs the model-serving runtime as an HTTP server:
// it trains demonstration models on synthetic data — a plain MLP (optionally
// Deep-Compressed), a split/early-exit cascade, and a random-forest baseline
// — installs them as serving backends in one registry, and serves
// predictions with adaptive batching.
//
//	mobiledlserve -addr :8080 -batch 32 -window 2ms
//
// Endpoints:
//
//	POST /v1/predict  {"model":"mlp","features":[[...64 floats...]],
//	                   "options":{"top_k":3,"version":1,"no_perturb":false},
//	                   "timeout_ms":250}
//	GET  /v1/stats    p50/p99 latency, windowed throughput, shed/expired
//	GET  /v1/models   registry listing (kind, versions, compression ratio,
//	                  training provenance)
//	GET  /v1/trace/recent  retained trace summaries (tail-based retention)
//	GET  /v1/trace/{id}    one trace's span tree
//	GET  /v1/backup   online store snapshot (with -data-dir; restorable)
//	GET  /metrics     Prometheus text exposition (serving + training + build)
//	GET  /healthz     readiness: 200 while serving, 503 while draining;
//	                  the "store" field reports ok|degraded|disabled
//
// With -data-dir the process is crash-safe: every published model version is
// appended to a WAL-backed store (fsync per publish, periodic snapshot
// compaction) and training round state is checkpointed between rounds. On
// boot the store replays — truncating any torn tail a crash left — the
// registry reinstalls recovered versions, and the federated coordinator
// resumes from its last checkpoint instead of round 0. Store failures at
// runtime degrade gracefully: publishes continue in RAM, /healthz reports
// "store":"degraded", and the predict path never touches disk.
//
// Predict requests are traced at the -trace-sample rate (an inbound W3C
// traceparent header with the sampled flag always traces and joins the
// caller's trace); finished traces are queryable from /v1/trace. Logs are
// structured (log/slog, -log-level text to stderr) and carry trace ids for
// correlation. -pprof mounts net/http/pprof under /debug/pprof/.
//
// Every predict request runs under a deadline (the -budget default or the
// request's timeout_ms); requests that outlive it are answered 504 and
// pruned before they cost a backend execution. Admission is bounded
// (-queue, -inflight): overload sheds with 429 + Retry-After instead of
// queueing doomed work. SIGINT/SIGTERM shut down gracefully — intake stops,
// in-flight batches drain, the registry closes.
//
// Several mobiledlserve processes become one logical service with the
// cluster flags: -peers seeds gossip membership (liveness, model/version
// inventory, load), a consistent-hash ring shards model ownership, and a
// /v1/predict for a model owned elsewhere is transparently forwarded to the
// owner — traceparent propagated, hops capped via X-MobileDL-Hops, slow or
// failed peers routed around by a per-peer score with bounded retries.
// -node-rps caps locally served predicts (shed 429 beyond) so per-node
// capacity is explicit; /healthz gains a "cluster" field
// (solo|joining|ok|partitioned) and /metrics the mobiledl_cluster_* family:
//
//	mobiledlserve -addr :8080 -node-id a -peers host2:8080,host3:8080
//	POST /v1/cluster/gossip   peer state exchange (internal)
//	GET  /v1/cluster/state    membership, liveness, routes per model
//
// With -train the server additionally runs the federated train-to-serve
// loop (internal/fedserve): a "fedmlp" model trains continuously on
// simulated non-IID mobile clients and every accepted round hot-publishes a
// new version that predict traffic migrates to mid-flight. The training
// control plane mounts next to the serving API:
//
//	POST /v1/train/start   start (or resume) federated rounds
//	POST /v1/train/pause   pause at the next round boundary
//	GET  /v1/train/status  round, accuracies, published versions, bytes
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mobiledl/internal/baselines"
	"mobiledl/internal/cluster"
	"mobiledl/internal/compress"
	"mobiledl/internal/core"
	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/mobile"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
	"mobiledl/internal/serve"
	"mobiledl/internal/split"
	"mobiledl/internal/store"
	"mobiledl/internal/trace"
	"mobiledl/internal/version"
)

const (
	inputDim = 64
	classes  = 10
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], stop); err != nil {
		fmt.Fprintln(os.Stderr, "mobiledlserve:", err)
		os.Exit(1)
	}
}

// testEvent, when non-nil, observes process lifecycle milestones ("listen",
// "drain", "http-shutdown", "coord-stop", "server-close", "store-close") —
// the seam the full-process shutdown-ordering test hooks. Production never
// sets it.
var testEvent func(event, detail string)

func emitEvent(event, detail string) {
	if testEvent != nil {
		testEvent(event, detail)
	}
}

// runCtx is the whole process under a cancellable context: ctx cancellation
// is the graceful-shutdown trigger (what a SIGINT/SIGTERM delivers in
// production, what tests drive directly). restoreSignals, when non-nil, runs
// once shutdown begins so a second signal kills immediately.
func runCtx(ctx context.Context, args []string, restoreSignals func()) error {
	fs := flag.NewFlagSet("mobiledlserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	maxBatch := fs.Int("batch", 32, "max coalesced batch size")
	window := fs.Duration("window", 2*time.Millisecond, "batch latency budget")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	budget := fs.Duration("budget", time.Second, "default per-request deadline budget (0 = none; clients override with timeout_ms)")
	queueCap := fs.Int("queue", 0, "admission queue cap per model (0 = default)")
	inflight := fs.Int("inflight", 0, "max inflight requests per model (0 = default, negative = unlimited)")
	sparsity := fs.Float64("sparsity", 0.9, "pruning sparsity for the compressed model")
	bits := fs.Int("bits", 4, "quantization bits for the compressed model")
	seed := fs.Int64("seed", 1, "random seed")
	network := fs.String("network", "wifi", "simulated device link: wifi|lte|offline")
	train := fs.Bool("train", false, "serve a federated train-to-serve loop (fedmlp) with the /v1/train control plane")
	trainClients := fs.Int("train-clients", 16, "simulated federated clients for -train")
	trainInterval := fs.Duration("train-interval", 250*time.Millisecond, "pacing between federated rounds for -train")
	drainGrace := fs.Duration("drain-grace", 500*time.Millisecond, "on shutdown, keep answering (with /healthz 503) this long before closing the listener, so load balancers observe the drain")
	logLevel := fs.String("log-level", "info", "structured log level: debug|info|warn|error")
	traceSample := fs.Float64("trace-sample", 0.1, "fraction of predict requests (and federated rounds) traced into /v1/trace (0 disables)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	dataDir := fs.String("data-dir", "", "durable model store directory: published versions and training checkpoints survive restarts (empty = in-RAM only)")
	demoModels := fs.Bool("demo-models", true, "train and serve the demonstration models (mlp, mlp-compressed, cascade, forest) at startup")
	serveModels := fs.String("serve-models", "", "comma-separated subset of the demo models to train and serve (empty = all four); the knob cluster deployments shard models across nodes with")
	nodeID := fs.String("node-id", "", "cluster node id (enables the cluster layer; defaults to the advertise address when -peers or -node-rps is set)")
	peers := fs.String("peers", "", "comma-separated seed peer addresses (host:port) to gossip cluster membership with")
	advertiseFlag := fs.String("advertise", "", "host:port peers use to reach this node (default: the bound listen address, with unspecified hosts rewritten to 127.0.0.1)")
	gossipInterval := fs.Duration("gossip-interval", time.Second, "cluster gossip exchange interval")
	nodeRPS := fs.Float64("node-rps", 0, "node serving capacity: locally served predicts/sec beyond which this node sheds 429 (0 = uncapped); forwarded requests are exempt")
	showVersion := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Printf("mobiledlserve %s\n", version.Version)
		return nil
	}
	netw, err := parseNetwork(*network)
	if err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{Sample: *traceSample})
	}

	reg := serve.NewRegistry()

	// The persistence layer opens (and recovers) before anything publishes,
	// and closes after the registry: the store's defer is registered first so
	// it runs last, giving the shutdown order drain -> batcher drain ->
	// registry close -> store close.
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(store.Options{Dir: *dataDir, Tracer: tracer, Logger: logger})
		if err != nil {
			return fmt.Errorf("open model store: %w", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				logger.Error("store close failed", "err", err)
			}
			emitEvent("store-close", *dataDir)
		}()
		reg.SetStore(st)
	}

	// Register the federated model's factory before boot recovery so its
	// persisted versions can be rebuilt; the demo models are retrained fresh
	// each boot and recover nothing (their records are skipped).
	var fedFactory federated.ModelFactory
	if *train {
		_, fedFactory, err = core.NewMLP(core.MLPSpec{In: inputDim, Hidden: []int{64, 32}, Classes: classes, Seed: *seed + 102})
		if err != nil {
			return err
		}
		err = reg.Register("fedmlp", func() (serve.Backend, error) {
			m, err := fedFactory()
			if err != nil {
				return nil, err
			}
			return serve.NewDenseBackend(m)
		})
		if err != nil {
			return err
		}
	}
	if st != nil {
		restored, skipped, err := reg.RecoverFrom(st)
		if err != nil {
			return fmt.Errorf("recover model store: %w", err)
		}
		if restored > 0 || skipped > 0 {
			fmt.Printf("recovered %d model version(s) from %s (%d skipped: no registered factory)\n",
				restored, *dataDir, skipped)
		}
	}

	var served []string
	if *demoModels {
		want, err := parseServeModels(*serveModels)
		if err != nil {
			return err
		}
		fmt.Println("training demonstration models on synthetic data...")
		if err := installModels(reg, *sparsity, *bits, *seed, want); err != nil {
			return err
		}
		for _, name := range demoModelNames {
			if want[name] {
				served = append(served, name)
			}
		}
	}

	// The listener opens before the cluster/server wiring so the cluster
	// layer can advertise the actually-bound address (":0" in tests and the
	// multi-process harness resolves here). http.Server.Serve takes
	// ownership later; the deferred Close only matters on early error paths.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer func() { _ = ln.Close() }()

	// The cluster layer turns N processes into one logical service. It is on
	// when any of its knobs is set; -node-rps alone yields a capacity-gated
	// solo node (the single-node baseline of the cluster harness).
	var cl *cluster.Node
	id := *nodeID
	if *peers != "" || id != "" || *nodeRPS > 0 {
		adv := *advertiseFlag
		if adv == "" {
			adv = advertiseAddr(ln.Addr())
		}
		if id == "" {
			id = adv
		}
		cl, err = cluster.New(cluster.Config{
			NodeID: id, AdvertiseAddr: adv, Peers: splitPeers(*peers),
			GossipInterval: *gossipInterval, LocalRPS: *nodeRPS,
			Inventory: reg.Inventory, Tracer: tracer, Logger: logger,
		})
		if err != nil {
			return err
		}
	}

	scfg := serve.ServerConfig{DefaultTimeout: *budget, Tracer: tracer, Logger: logger}
	if cl != nil {
		scfg.ClusterStatus = cl.Status
	}
	srv := serve.NewServerWith(reg, scfg)
	defer func() {
		srv.Close()
		emitEvent("server-close", "")
	}()
	if st != nil {
		srv.AddMetricsSource(st.WriteMetrics)
	}
	batch := serve.BatcherConfig{
		MaxBatch: *maxBatch, MaxDelay: *window, Workers: *workers,
		QueueCap: *queueCap, MaxInflight: *inflight,
	}

	mux := http.NewServeMux()
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Println("pprof mounted at /debug/pprof/")
	}
	if *train {
		var ck fedserve.CheckpointStore
		if st != nil {
			ck = st
		}
		coord, err := setupTraining(reg, fedFactory, ck, *trainClients, *trainInterval, *seed, tracer, logger)
		if err != nil {
			return err
		}
		defer func() {
			coord.Stop()
			emitEvent("coord-stop", "")
		}()
		fedserve.NewControl(coord).Mount(mux)
		srv.AddMetricsSource(coord.WriteMetrics)
		served = append(served, "fedmlp")
		fmt.Println("federated train-to-serve loop ready: POST /v1/train/start to begin rounds")
	}

	for _, name := range served {
		rt, err := serve.NewRuntime(serve.RuntimeConfig{
			Registry: reg, Model: name, Batch: batch,
			Net: netw, Seed: *seed, Logger: logger,
		})
		if err != nil {
			return err
		}
		srv.Add(rt)
	}
	mux.Handle("/", srv.Handler())

	// The cluster handler wraps the whole mux: it owns /v1/cluster/* and
	// intercepts /v1/predict for routing; everything else passes through.
	var handler http.Handler = mux
	if cl != nil {
		handler = cl.Handler(mux)
		srv.AddMetricsSource(cl.WriteMetrics)
		cl.Start()
		defer cl.Stop()
		fmt.Printf("cluster node %q gossiping every %s (peers: %q, node-rps %g)\n",
			id, *gossipInterval, *peers, *nodeRPS)
	}

	for _, info := range reg.Snapshot() {
		line := fmt.Sprintf("serving %-15s v%d  %-8s %-15s %d params",
			info.Name, info.Version, info.Kind, info.Algorithm, info.Params)
		if info.Compressed {
			line += fmt.Sprintf("  (%.1fx compressed)", info.Ratio)
		}
		fmt.Println(line)
	}
	// A configured http.Server over the listener opened above: header and
	// idle timeouts bound slow-loris and dead keep-alive connections,
	// Shutdown gives ctx cancellation (SIGTERM/SIGINT in production) a
	// graceful path — stop intake, let in-flight handlers finish, then (via
	// the deferred closes above) drain the batchers, release the registry,
	// and close the store — and announcing only here lets :0 tests discover
	// the bound port once serving is actually imminent.
	fmt.Printf("mobiledlserve %s listening on %s (batch<=%d, window %s, budget %s, network %s, trace-sample %g)\n",
		version.Version, ln.Addr(), *maxBatch, *window, *budget, netw.Kind, *traceSample)
	emitEvent("listen", ln.Addr().String())
	hsrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("\nshutting down: stopping intake, draining in-flight requests...")
	// Flip /healthz to 503 first and keep the listener open for the grace
	// window so load balancers actually observe the drain and stop routing
	// here; only then stop intake and let in-flight handlers finish.
	srv.StartDrain()
	emitEvent("drain", "")
	if restoreSignals != nil {
		restoreSignals() // restore default signal disposition: a second signal kills now
	}
	time.Sleep(*drainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hsrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	emitEvent("http-shutdown", "")
	return nil
}

// buildLogger builds the process logger: slog text to stderr at the
// requested level.
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// setupTraining builds the federated train-to-serve coordinator: non-IID
// client shards over a fresh synthetic task (same 64-dim/10-class interface
// as the other served models), the idle/charging/WiFi eligibility scheduler,
// and publication into the shared registry as "fedmlp". The coordinator
// publishes the untrained model immediately so the runtime can attach; the
// round loop starts via POST /v1/train/start. With a checkpoint store it
// resumes from the last persisted round instead of round 0.
func setupTraining(reg *serve.Registry, factory federated.ModelFactory, ck fedserve.CheckpointStore, clients int, interval time.Duration, seed int64, tracer *trace.Tracer, logger *slog.Logger) (*fedserve.Coordinator, error) {
	fb, err := data.GenerateFedBench(data.FedBenchConfig{
		Samples: 2000, Classes: classes, Dim: inputDim, Spread: 1.3, Seed: seed + 100,
	})
	if err != nil {
		return nil, err
	}
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 101))
	shards, err := data.ShardNonIID(rng, trX, trY, clients)
	if err != nil {
		return nil, err
	}
	sched, err := federated.NewScheduler(rng, clients, 0.9, 0.9, 0.9)
	if err != nil {
		return nil, err
	}
	return fedserve.NewCoordinator(fedserve.Config{
		Factory: factory, Shards: shards, Classes: classes,
		EvalX: teX, EvalY: teY,
		ClientFraction: 0.5, LocalEpochs: 2, LocalBatch: 32, LocalLR: 0.08,
		Seed: seed + 103, Scheduler: sched,
		RoundInterval: interval,
		Registry:      reg, Model: "fedmlp",
		Checkpoint: ck,
		Tracer:     tracer, Logger: logger,
	})
}

// demoModelNames is the full demonstration-model set, in serving order.
var demoModelNames = []string{"mlp", "mlp-compressed", "cascade", "forest"}

// parseServeModels resolves -serve-models: empty selects every demo model,
// otherwise a comma-separated subset of demoModelNames.
func parseServeModels(s string) (map[string]bool, error) {
	want := make(map[string]bool, len(demoModelNames))
	if strings.TrimSpace(s) == "" {
		for _, n := range demoModelNames {
			want[n] = true
		}
		return want, nil
	}
	valid := make(map[string]bool, len(demoModelNames))
	for _, n := range demoModelNames {
		valid[n] = true
	}
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !valid[n] {
			return nil, fmt.Errorf("unknown model %q in -serve-models (valid: %s)", n, strings.Join(demoModelNames, ","))
		}
		want[n] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-serve-models %q selects no models", s)
	}
	return want, nil
}

// splitPeers parses the -peers flag into dial addresses.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// advertiseAddr turns the bound listener address into something peers can
// dial: an unspecified host (":8080" binds the wildcard address) becomes
// 127.0.0.1, so same-machine clusters work out of the box; multi-machine
// deployments set -advertise explicitly.
func advertiseAddr(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

func parseNetwork(s string) (mobile.Network, error) {
	switch s {
	case "wifi":
		return mobile.WiFiNetwork(), nil
	case "lte":
		return mobile.LTENetwork(), nil
	case "offline":
		return mobile.OfflineNetwork(), nil
	default:
		return mobile.Network{}, fmt.Errorf("unknown network %q (wifi|lte|offline)", s)
	}
}

// installModels trains the selected servables on one synthetic task, one
// per backend family: a plain MLP (DenseBackend), a Deep-Compressed copy of
// it (loaded through the registry's compression path), a split/early-exit
// cascade (CascadeBackend), and a random forest (BaselineBackend). want
// filters which to train — cluster deployments shard the set across nodes —
// and training mlp-compressed trains the MLP it compresses even when the
// plain model is not selected.
func installModels(reg *serve.Registry, sparsity float64, bits int, seed int64, want map[string]bool) error {
	fb, err := data.GenerateFedBench(data.FedBenchConfig{Samples: 800, Classes: classes, Dim: inputDim, Seed: seed})
	if err != nil {
		return err
	}

	if want["mlp"] || want["mlp-compressed"] {
		// Plain MLP (also the source weights for the compressed copy).
		model, _, err := core.NewMLP(core.MLPSpec{In: inputDim, Hidden: []int{64, 32}, Classes: classes, Seed: seed})
		if err != nil {
			return err
		}
		if err := core.TrainCentralized(model, fb.X, fb.Labels, classes, 4, seed); err != nil {
			return err
		}
		if want["mlp"] {
			mlp, err := serve.NewDenseBackend(model)
			if err != nil {
				return err
			}
			if _, err := reg.Install("mlp", mlp); err != nil {
				return err
			}
		}
		if want["mlp-compressed"] {
			// Compressed copy, loaded through the registry's factory +
			// pipeline path.
			blob, err := nn.EncodeWeights(model)
			if err != nil {
				return err
			}
			err = reg.Register("mlp-compressed", func() (serve.Backend, error) {
				m, _, err := core.NewMLP(core.MLPSpec{In: inputDim, Hidden: []int{64, 32}, Classes: classes, Seed: seed})
				if err != nil {
					return nil, err
				}
				return serve.NewDenseBackend(m)
			})
			if err != nil {
				return err
			}
			if _, err := reg.LoadCompressed("mlp-compressed", blob,
				compress.PipelineConfig{Sparsity: sparsity, Bits: bits}); err != nil {
				return err
			}
		}
	}

	if want["cascade"] {
		// Split/early-exit cascade.
		rng := rand.New(rand.NewSource(seed))
		local := nn.NewSequential(nn.NewDense(rng, inputDim, 32), nn.NewTanh())
		cloud := nn.NewSequential(nn.NewDense(rng, 32, 64), nn.NewReLU(), nn.NewDense(rng, 64, classes))
		exit := nn.NewSequential(nn.NewDense(rng, 32, classes))
		pipe, err := split.New(split.Config{Local: local, Cloud: cloud, NullRate: 0.1, NoiseSigma: 0.5, Bound: 4})
		if err != nil {
			return err
		}
		tc := split.TrainConfig{
			Epochs: 4, BatchSize: 32, Optimizer: opt.NewAdam(0.01),
			Rng: rng, NoisyFraction: 1,
		}
		if _, err := pipe.TrainCloud(fb.X, fb.Labels, classes, tc); err != nil {
			return err
		}
		cascade, err := split.NewEarlyExit(pipe, exit, 0.8)
		if err != nil {
			return err
		}
		exitCfg := tc
		exitCfg.NoisyFraction = 0
		if err := cascade.TrainExit(fb.X, fb.Labels, classes, exitCfg); err != nil {
			return err
		}
		cb, err := serve.NewCascadeBackend(cascade)
		if err != nil {
			return err
		}
		if _, err := reg.Install("cascade", cb); err != nil {
			return err
		}
	}

	if want["forest"] {
		// Random-forest baseline behind the same batcher.
		forest := baselines.NewRandomForest()
		forest.NumTrees = 25
		forest.Seed = seed
		if err := forest.Fit(fb.X, fb.Labels, classes); err != nil {
			return err
		}
		fbk, err := serve.NewBaselineBackend(forest, inputDim)
		if err != nil {
			return err
		}
		if _, err := reg.Install("forest", fbk); err != nil {
			return err
		}
	}
	return nil
}
