// Package serve is the concurrent model-serving runtime over the paper's
// algorithmic pieces, organized around one seam: the Backend interface.
// A Backend is anything that can describe its serving interface and classify
// a coalesced tensor batch under a simulated mobile/cloud environment; the
// package ships three implementations —
//
//   - DenseBackend: any nn.Sequential served whole, including the
//     reconstructed networks the internal/compress Deep Compression
//     pipeline emits, placed local or cloud by the internal/mobile cost
//     model;
//   - CascadeBackend: a split/early-exit cascade (internal/split) whose
//     device-side layers answer confident rows at the on-device exit and
//     whose unconfident rows are perturbed and finished cloud-side over the
//     simulated uplink;
//   - BaselineBackend: any fitted internal/baselines classifier (tree,
//     forest, linear, boosting) behind the same batcher.
//
// Around the seam: a versioned Registry with lock-free hot swap (weight
// blobs move via internal/nn serialization into Param-bearing backends; a
// bounded version history keeps pinned versions resolvable), an adaptive
// Batcher that coalesces requests into tensor batches under a latency
// budget — grouping rows by execution-relevant RequestOptions — and a
// Runtime that resolves the (possibly pinned) model version per batch and
// hands it to the backend. Per-request options (top_k probabilities,
// version pin, no_perturb) thread from the HTTP layer through the batcher
// into Backend.RunBatch.
//
// The predict path is deadline-aware and overload-safe: each request's
// context rides with it through the batcher, rows whose caller has already
// given up are pruned (at flush and at exec) instead of computed, a batch
// whose every submitter is gone cancels the backend's context, and bounded
// admission (QueueCap, MaxInflight) sheds with ErrOverloaded rather than
// queueing doomed work.
//
// A Runtime wires registry, batcher, and backend together for one
// registered model; Server exposes any number of runtimes over HTTP/JSON
// (POST /v1/predict, GET /v1/stats, GET /v1/models, GET /metrics) with
// p50/p99 latency, sliding-window throughput, shed/expired/error counts,
// and Prometheus exposition backed by internal/metrics.
package serve

import (
	"errors"

	"mobiledl/internal/mobile"
	"mobiledl/internal/trace"
)

// ErrServe reports invalid serving configurations or server-side faults.
var ErrServe = errors.New("serve: invalid configuration")

// ErrRequest reports a malformed client request (e.g. wrong feature width,
// unknown version pin); the HTTP layer maps it to 400 where ErrServe maps
// to 500.
var ErrRequest = errors.New("serve: invalid request")

// ErrClosed is returned by Submit/Predict after the runtime has shut down;
// the HTTP layer maps it to 503.
var ErrClosed = errors.New("serve: runtime closed")

// ErrOverloaded is returned by Submit/Predict when admission control sheds
// the request — the batcher's queue or inflight cap is full. It fails fast
// by design: under overload, queueing more work only manufactures stale
// requests whose callers time out before the answer computes. The HTTP
// layer maps it to 429 with a Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// Result is the answer to one inference request.
type Result struct {
	// Class is the predicted label.
	Class int
	// Probs is the top-K class-probability breakdown, descending, when the
	// request asked for one (RequestOptions.TopK > 0); nil otherwise.
	Probs []ClassProb
	// Local reports whether the row was answered by the on-device early
	// exit (always false for plain models).
	Local bool
	// Placement is the execution strategy the batch ran under.
	Placement mobile.Placement
	// ModelVersion is the registry version that served the request.
	ModelVersion int
	// BatchSize is how many requests shared the tensor batch.
	BatchSize int
	// QueueMs is time spent waiting for the batch to form.
	QueueMs float64
	// ExecMs is compute time inside the batch's exec call.
	ExecMs float64
	// SimNetMs is the modeled device<->cloud transfer latency for this row
	// (zero for rows answered locally).
	SimNetMs float64

	// blog carries the batch's backend span records (shared, read-only) from
	// the executing worker back to each traced submitter, which materializes
	// them into its own trace. Nil for untraced batches.
	blog *trace.BatchLog
}
