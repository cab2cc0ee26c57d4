// Package mobiledl is a from-scratch Go reproduction of "Deep Learning
// Towards Mobile Applications" (Wang, Cao, Yu, Sun, Bao, Zhu — ICDCS 2018):
// federated and privacy-preserving training on mobile data, efficient
// on-device inference (split execution and model compression), and the two
// reference applications DeepMood and DEEPSERVICE.
//
// See README.md for the feature overview and ARCHITECTURE.md for the layer
// map, the train -> publish -> serve data-flow diagram, and the guide to
// adding a serving backend or client trainer. The root-level bench_test.go
// regenerates every paper table and figure as a testing.B benchmark;
// cmd/paperbench prints them.
//
// # Serving runtime
//
// internal/serve turns the algorithmic pieces into a concurrent
// model-serving system built around one seam, the Backend interface
// (Describe, InputDim, RunBatch, Params, Close). Three implementations
// ship: DenseBackend (any nn.Sequential, including Deep-Compressed output,
// placed local or cloud by the internal/mobile cost model), CascadeBackend
// (split/early-exit cascades from internal/split — confident rows answer at
// the on-device exit, the rest are perturbed and finished cloud-side over
// the simulated uplink), and BaselineBackend (any fitted internal/baselines
// classifier behind the same batcher). Adding a model family to the serving
// system means implementing Backend and nothing else.
//
// Around the seam, the flow is registry -> batcher -> backend:
//
//   - Registry names, versions, and hot-swaps backends. Weights travel as
//     nn.EncodeWeights blobs (format in internal/nn/serialize.go) into
//     Param-bearing backends — Register an architecture factory and Load
//     blobs into it (LoadCompressed routes them through the
//     internal/compress Deep Compression pipeline first), or Install an
//     in-process backend directly (the only path for parameter-less
//     baselines). Reads are lock-free; swaps take effect at the next batch
//     boundary, and a bounded version history keeps recently replaced
//     versions resolvable for version-pinned requests.
//   - Batcher coalesces single-row requests into tensor batches under a
//     latency budget: a batch flushes when it reaches MaxBatch rows or
//     MaxDelay after its first request, whichever comes first, and a worker
//     pool sized to GOMAXPROCS executes flushed batches. Rows whose
//     RequestOptions differ are split into uniform sub-batches at flush
//     time, so a backend always sees one options set per call.
//   - Runtime resolves each batch's requested (current or pinned) version
//     and runs the batch through that version's Backend under a shared
//     ExecEnv (device/cloud/network cost model plus the serialized
//     perturbation RNG).
//
// Per-request options thread end to end from the HTTP body to RunBatch:
// top_k (class-probability breakdown), version (registry pin), no_perturb
// (skip the cascade's DP perturbation while still billing the uplink).
//
// Runtime wires the three together for one model and Server exposes any
// number of runtimes over HTTP/JSON (POST /v1/predict, GET /v1/stats with
// p50/p99 latency, throughput and batch occupancy via internal/metrics,
// GET /v1/models). cmd/mobiledlserve is the standalone server binary;
// examples/serving is the in-process quickstart serving all three backend
// kinds; BenchmarkServeThroughput in bench_test.go measures requests/sec at
// max batch sizes 1/8/32.
//
// # Train-to-serve loop
//
// internal/fedserve closes the loop between training and serving: a
// Coordinator runs synchronous federated rounds continuously — device
// eligibility via federated.Scheduler, parallel client training on
// federated.FanOut, one server step at the barrier (federated.MergeWeighted,
// or privacy.DPFedAvgStep with DP on) — and hot-publishes every accepted
// global model into the serve.Registry with round/accuracy provenance, so
// predict traffic migrates to better models mid-flight. The /v1/train
// control plane (start, pause, status) mounts next to the serving API in
// cmd/mobiledlserve via -train; examples/trainserve is the in-process
// demo. See ARCHITECTURE.md for the full data-flow diagram.
//
// # Performance conventions
//
// internal/tensor is the substrate every hot path rides, and it follows
// three rules the rest of the repository is written against:
//
//   - Destination passing: each hot operation has an *Into variant
//     (MatMulInto, AddInto, SoftmaxInto, ..., plus accumulate fusions like
//     MatMulAccInto) that writes into a caller-supplied, correctly-shaped
//     matrix and allocates nothing. Allocating forms remain for cold sites.
//   - Pooling: tensor.Pool / the shared tensor.Get and tensor.Put recycle
//     matrix storage by capacity class. Scratch obtained from Get is owned
//     until Put and never used afterwards; results returned across an API
//     boundary are freshly allocated, never pooled, so callers own them
//     unconditionally. Views (Reshape, RowMatrix) must not be Put.
//   - One work threshold: below 2^20 multiply-accumulates a matmul stays
//     on the calling goroutine and the portable register-tiled kernel. From
//     there up, the kernels split row blocks across GOMAXPROCS goroutines
//     and MatMulInto/MatMulAccInto switch, on amd64 with AVX2 (probed once
//     from CPUID and XCR0), to a vector kernel that equals the portable
//     one bit for bit: no FMA, ascending k, the same association order, so
//     a batch's composition or the core count never changes an answer. It
//     is gated because 256-bit arithmetic slows the scalar code that runs
//     after it: used at every shape, the one-row serving benchmark
//     (predict_single, 4096-MAC matmuls) lost 2.5 % of its throughput in
//     six of six paired runs — small, and inside that metric's 10 % bound,
//     but one-sided, and the gate is one comparison. The gate reads the
//     work, not the worker count, so GOMAXPROCS=1 gets the vector kernel
//     too. GOAMD64=v3 builds have no vector kernel: there the compiler
//     fuses the portable kernel's multiply-adds, and the two could not
//     agree.
//
// Consumers follow suit: nn.Dense fuses bias into the matmul destination;
// nn.GRU reuses its per-step activation cache across calls (making a GRU
// instance single-goroutine, unlike Dense inference which is stateless and
// concurrency-safe); the serve batcher and cascade backend pool batch and
// gather buffers per worker. When adding a hot path, compute into pooled
// scratch, Put it before returning, and return only fresh matrices. `make
// bench-suite` runs the repository benchmark in bench/ and `make
// bench-compare` diffs two of its result files, so perf changes stay
// visible in review.
package mobiledl
