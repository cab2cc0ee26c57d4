package main

import "fmt"

// spec is one workload: the model it serves, the shape of its requests, the
// batcher setting that goes with that shape, its topology, and the rates
// frozen when the benchmark was defined.
type spec struct {
	name      string
	layers    []int // MLP widths, input first, classes last
	rows      int   // rows per request
	maxBatch  int   // BatcherConfig.MaxBatch; chosen so no run waits on the flush timer
	nReq      int   // distinct generated requests the load cycles through
	forwarded bool  // two-node cluster, load enters at the node without the model
	train     bool  // fedserve coordinator publishing beside a reader
	// openRate is the open-loop arrival rate in requests/s: about a third of
	// the closed-loop throughput measured on the commit that defined the
	// benchmark (the reader's fixed low rate on train_publish). Frozen, so
	// later commits are compared under the same offered load.
	openRate float64
	// roundsPerSecond sizes train_publish's fixed round count: rounds =
	// roundsPerSecond * seconds. Frozen at the defining commit's rate (20-21
	// rounds/s), so the round loop lasts about as long as the run is meant to.
	roundsPerSecond float64
}

var workloads = []*spec{
	{name: "predict_single", layers: []int{64, 64, 64, 10}, rows: 1, maxBatch: 1, nReq: 256, openRate: 6600},
	{name: "predict_rows", layers: []int{128, 1024, 1024, 10}, rows: 32, maxBatch: 32, nReq: 8, openRate: 45},
	{name: "predict_forwarded", layers: []int{64, 64, 64, 10}, rows: 1, maxBatch: 1, nReq: 256, forwarded: true, openRate: 3400},
	{name: "train_publish", layers: []int{fedDim, 256, fedClasses}, rows: 1, maxBatch: 1, train: true, openRate: 200, roundsPerSecond: 21},
}

func findWorkload(name string) (*spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; bench_test.go holds the two together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by every workload.
// An operation is a request on the serving workloads and a training round
// on train_publish.
var endToEnd = []metricDef{
	{"setup_s", "s"},          // median of the run's set-ups: process start (or set-up start) until the first verified answer
	{"throughput_ops", "1/s"}, // closed loop: successful requests/s; train_publish: rounds/s of the round loop
	{"latency_p90_ms", "ms"},  // closed loop, nproc callers that each wait for their reply (train_publish: its open-loop reader, from due time)
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"}, // process user+sys CPU per successful closed-loop request, or per round
	{"peak_rss_mb", "MB"},   // resident-set high-water mark at the end of the run
	{"recover_ms", "ms"},    // median reopen of the run's data dir: store.Open -> Registry.RecoverFrom -> Get
}

// perLayer lists the single-layer metrics of a traced run, grouped by the
// package they watch. Source: L = ladder of direct calls, D = decorator
// spans, R = the program's own reports. A metric whose layer the workload
// never crosses reads 0.
var perLayer = []metricDef{
	{"tensor.matmul_ns_per_row", "ns"},          // L
	{"tensor.matmul_macs_per_row", "count"},     // computed from the layer shapes
	{"nn.forward_ns_per_row", "ns"},             // L
	{"nn.train_ns_per_sample", "ns"},            // D: trainer spans / samples trained
	{"nn.encode_weights_ns", "ns"},              // L
	{"nn.decode_weights_ns", "ns"},              // L
	{"nn.weights_bytes", "B"},                   // L
	{"serve.backend.runbatch_ns_per_row", "ns"}, // L
	{"serve.backend.calls", "count"},            // R: Runtime.Stats batches
	{"serve.backend.rows_per_call", "count"},    // R
	{"serve.backend.busy_share", "ratio"},       // R: exec time / (wall * workers)
	{"serve.batcher.dispatch_ns_per_req", "ns"}, // L: Predict rung - RunBatch rung
	{"serve.batcher.queue_ms_p50", "ms"},        // R: queue_ms of each reply
	{"serve.batcher.queue_ms_p99", "ms"},
	{"serve.batcher.rows_per_batch", "count"},         // R: batch_size of each reply
	{"serve.batcher.shed", "count"},                   // R
	{"serve.batcher.expired", "count"},                // R
	{"serve.runtime.predict_ns_per_req", "ns"},        // L
	{"serve.runtime.predict_allocs_per_req", "count"}, // L
	{"serve.server.handler_ns_per_req", "ns"},         // L: Server.Handler on a recorder
	{"serve.server.handler_allocs_per_req", "count"},
	{"serve.server.handler_bytes_per_req", "B"},
	{"serve.server.edge_ns_per_req", "ns"}, // L: recorder rung - Predict rung
	{"serve.server.handler_ms_p50", "ms"},  // D
	{"serve.server.req_body_bytes", "B"},   // R: load generator's mean
	{"serve.server.resp_body_bytes", "B"},
	{"http.loopback_ns_per_req", "ns"}, // L: loopback rung - recorder rung
	{"http.client_ms_p50", "ms"},       // D
	{"cluster.hop_ns_per_req", "ns"},   // L: forwarded rung - loopback rung
	{"cluster.hop_allocs_per_req", "count"},
	{"cluster.handler_self_ms_p50", "ms"}, // D: entry node's handler minus its round trip
	{"cluster.roundtrip_ms_p50", "ms"},    // D
	{"cluster.forwards", "count"},         // R: /metrics
	{"cluster.forward_errors", "count"},
	{"store.append_publish_ms_p50", "ms"}, // D
	{"store.append_publish_ms_p99", "ms"},
	{"store.append_ms_max", "ms"},          // D: compaction lands here
	{"store.append_nosync_ns", "ns"},       // L
	{"store.fsync_ms_est", "ms"},           // L: synced append - unsynced append
	{"store.save_checkpoint_ms_p50", "ms"}, // L
	{"store.open_ms_p50", "ms"},            // L
	{"store.appends", "count"},             // R: Store.Stats
	{"store.compactions", "count"},
	{"store.wal_bytes_end", "B"},
	{"store.record_bytes_mean", "B"},        // D: weight blob per publish
	{"serve.registry.install_ns", "ns"},     // L
	{"serve.registry.recover_ms_p50", "ms"}, // L
	{"fedserve.round_ms_p50", "ms"},         // D: between successive checkpoints
	{"fedserve.round_ms_p99", "ms"},
	{"fedserve.fanout_ms_p50", "ms"},     // D: first client start -> last client end
	{"fedserve.coord_self_ms_p50", "ms"}, // D: round minus clients, appends, checkpoint
	{"fedserve.worker_busy_share", "ratio"},
	{"fedserve.clients_per_round", "count"},
	{"fedserve.rounds", "count"}, // R: Coordinator.Status
	{"fedserve.published", "count"},
	{"fedserve.merged_updates", "count"},
	{"fedserve.failed_clients", "count"},
	{"metrics.render_ns", "ns"}, // L: GET /metrics over loopback
	{"metrics.parse_ns", "ns"},  // L: metrics.ParseProm of that page
	{"metrics.families", "count"},
	{"go.alloc_bytes_per_op", "B"}, // R: runtime.MemStats over the traced closed loop / round loop
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms_total", "ms"},
	{"go.goroutines_peak", "count"},
	{"proc.cpu_user_s", "s"},
	{"proc.cpu_sys_s", "s"},
	{"loadgen.open_p50_ms", "ms"}, // open loop at the frozen rate, from each request's due time
	{"loadgen.open_p99_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},           // how far behind schedule the open-loop generator started requests
	{"bench.trace_overhead_ratio", "ratio"}, // traced throughput / untraced throughput, same process
}

// newMetrics returns the defs with every value 0, so a run always reports
// the full set.
func newMetrics(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.name] = metric{0, d.unit}
	}
	return m
}

// put sets a metric that newMetrics declared; an undeclared name is a bug in
// the benchmark.
func (m metricSet) put(name string, v float64) {
	d, ok := m[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	d.Value = v
	m[name] = d
}
