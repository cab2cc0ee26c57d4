package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"mobiledl/internal/baselines"
	"mobiledl/internal/mobile"
	"mobiledl/internal/nn"
	"mobiledl/internal/split"
	"mobiledl/internal/tensor"
	"mobiledl/internal/trace"
	"mobiledl/internal/wire"
)

// Backend is one servable model family behind the batcher: anything that can
// describe its serving interface and classify a coalesced tensor batch under
// a simulated execution environment. The registry versions Backends, the
// batcher feeds them, and the runtime stamps the serving version onto their
// results — so adding a model family to the serving system means
// implementing this interface and nothing else.
type Backend interface {
	// Describe reports the backend's serving interface and cost-model
	// workload. It must be constant for the backend's lifetime.
	Describe() BackendInfo
	// RunBatch classifies one coalesced batch under the environment env and
	// the request options opts (identical for every row — the batcher groups
	// rows by execution-relevant options before calling). The batch matrix
	// is pooled and only valid for the duration of the call.
	RunBatch(ctx context.Context, env *ExecEnv, batch *tensor.Matrix, opts RequestOptions) (BatchResult, error)
	// Params returns the backend's trainable parameters in a fixed order —
	// the unit the registry's weight-blob hot swap (nn.EncodeWeights /
	// nn.DecodeWeights) round-trips. Backends without tensor parameters (e.g. tree ensembles)
	// return nil and are Install-only.
	Params() []*nn.Param
	// Close releases backend-held resources. The shipped backends hold
	// none; the seam exists for backends that mmap weights or talk to
	// external processes.
	Close() error
}

// BackendInfo is a backend's self-description: the serving interface the
// registry enforces across hot swaps and the workload the placement cost
// model plans with.
type BackendInfo struct {
	// Kind is the backend family: "dense", "cascade", or "baseline".
	Kind string
	// Algorithm names the concrete model (e.g. "RandomForest") for listings.
	Algorithm string
	// InputDim is the feature width of one request row.
	InputDim int
	// Classes is the output label count.
	Classes int
	// NumParams counts trainable parameters (0 for baseline backends).
	NumParams int
	// Workload is the per-sample placement-planning workload (zero for
	// backends that always run where the runtime runs).
	Workload mobile.Workload
}

// RequestOptions are the per-request serving knobs, threaded from the HTTP
// layer (the "options" object of /v1/predict) through the batcher to the
// backend. The zero value is the default request. Rows whose options differ
// in execution-relevant ways are never coalesced into the same tensor batch.
type RequestOptions = wire.Options

// validateOptions rejects malformed options as a client error.
func validateOptions(o RequestOptions) error {
	if o.TopK < 0 {
		return fmt.Errorf("%w: top_k %d negative", ErrRequest, o.TopK)
	}
	if o.Version < 0 {
		return fmt.Errorf("%w: version %d negative", ErrRequest, o.Version)
	}
	return nil
}

// BatchResult is a backend's answer for one coalesced batch.
type BatchResult struct {
	// Results holds one entry per batch row, in row order. The backend
	// fills the model-level fields (Class, Probs, Local, Placement,
	// SimNetMs); the runtime and batcher stamp the serving-level ones
	// (ModelVersion, BatchSize, QueueMs, ExecMs).
	Results []Result
}

// ExecEnv is the simulated device/cloud/network environment a backend runs
// batches in. One ExecEnv is shared by all workers of a runtime, so its RNG
// access is serialized; the cost-model fields are read-only after
// construction.
type ExecEnv struct {
	Device mobile.Device
	Cloud  mobile.Device
	Net    mobile.Network

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewExecEnv builds an environment, applying defaults for zero values
// (midrange phone, cloud server, WiFi).
func NewExecEnv(device, cloud mobile.Device, net mobile.Network, seed int64) *ExecEnv {
	if device.MACsPerSec == 0 {
		device = mobile.MidrangePhone()
	}
	if cloud.MACsPerSec == 0 {
		cloud = mobile.CloudServer()
	}
	if net.Kind == 0 {
		net = mobile.WiFiNetwork()
	}
	return &ExecEnv{Device: device, Cloud: cloud, Net: net, rng: rand.New(rand.NewSource(seed))}
}

// Plans evaluates all placements for a per-sample workload, feasible-first,
// cheapest-first.
func (env *ExecEnv) Plans(w mobile.Workload) []mobile.PlanCost {
	return mobile.ComparePlacements(env.Device, env.Cloud, env.Net, w)
}

// TransferMs models one row's round trip: upload upBytes, download downBytes
// on the environment's network.
func (env *ExecEnv) TransferMs(upBytes, downBytes int64) (float64, error) {
	up, err := env.Net.TransferMillis(upBytes, true)
	if err != nil {
		return 0, err
	}
	down, err := env.Net.TransferMillis(downBytes, false)
	if err != nil {
		return 0, err
	}
	return up + down, nil
}

// WithRNG runs fn with the environment's RNG under its lock. Backends draw
// randomness (e.g. the cascade perturbation) only through this, keeping
// concurrent workers race-free and runs reproducible per seed.
func (env *ExecEnv) WithRNG(fn func(*rand.Rand) error) error {
	env.rngMu.Lock()
	defer env.rngMu.Unlock()
	return fn(env.rng)
}

// ---------------------------------------------------------------------------
// DenseBackend

// DenseBackend serves any nn.Sequential whole — plain MLPs and the
// reconstructed networks the Deep Compression pipeline emits alike. Per
// batch it runs one forward pass under the cheaper feasible of the local and
// cloud placements, billing the modeled raw-input uplink when the cost model
// sends it to the cloud.
type DenseBackend struct {
	net  *nn.Sequential
	info BackendInfo
}

var _ Backend = (*DenseBackend)(nil)

// NewDenseBackend wraps a network, deriving its serving interface from the
// first and last Dense layers.
func NewDenseBackend(net *nn.Sequential) (*DenseBackend, error) {
	if net == nil {
		return nil, fmt.Errorf("%w: dense backend needs a network", ErrServe)
	}
	in, err := firstDenseIn(net)
	if err != nil {
		return nil, err
	}
	classes, err := lastDenseOut(net)
	if err != nil {
		return nil, err
	}
	return &DenseBackend{
		net: net,
		info: BackendInfo{
			Kind:      "dense",
			Algorithm: "nn.Sequential",
			InputDim:  in,
			Classes:   classes,
			NumParams: nn.NumParams(net.Params()),
			Workload:  mobile.WorkloadFor(net, nil, in, classes, 0),
		},
	}, nil
}

// Net exposes the wrapped network (the registry's compression path rebuilds
// dense backends around pipeline output).
func (b *DenseBackend) Net() *nn.Sequential { return b.net }

// Describe implements Backend.
func (b *DenseBackend) Describe() BackendInfo { return b.info }

// Params implements Backend.
func (b *DenseBackend) Params() []*nn.Param { return b.net.Params() }

// Close implements Backend.
func (b *DenseBackend) Close() error { return nil }

// RunBatch implements Backend.
func (b *DenseBackend) RunBatch(ctx context.Context, env *ExecEnv, batch *tensor.Matrix, opts RequestOptions) (BatchResult, error) {
	plan, err := cheapestPlan(env, b.info.Workload, mobile.PlaceLocal, mobile.PlaceCloud)
	if err != nil {
		return BatchResult{}, err
	}
	bl := trace.LogFrom(ctx)
	fw := bl.Begin("dense.forward")
	logits, err := b.net.Forward(batch, false)
	bl.EndErr(fw, err, trace.Str("placement", plan.Placement.String()))
	if err != nil {
		return BatchResult{}, err
	}
	results := resultsFromScores(logits, opts.TopK, true)
	if plan.Placement == mobile.PlaceCloud {
		netMs, err := env.TransferMs(plan.UpBytes, plan.DownBytes)
		if err != nil {
			return BatchResult{}, err
		}
		for i := range results {
			results[i].SimNetMs = netMs
		}
	}
	for i := range results {
		results[i].Placement = plan.Placement
	}
	return BatchResult{Results: results}, nil
}

// ---------------------------------------------------------------------------
// CascadeBackend

// CascadeBackend serves a split/early-exit cascade: the device-side layers
// and exit classifier answer confident rows locally, the rest are perturbed
// (unless the request opts out) and finished by the cloud half over the
// simulated uplink. Each row's Result reports where it exited (Local) and
// what traffic it paid.
type CascadeBackend struct {
	cascade *split.EarlyExit
	info    BackendInfo
}

var _ Backend = (*CascadeBackend)(nil)

// NewCascadeBackend wraps an early-exit cascade.
func NewCascadeBackend(cascade *split.EarlyExit) (*CascadeBackend, error) {
	if cascade == nil {
		return nil, fmt.Errorf("%w: cascade backend needs a cascade", ErrServe)
	}
	p := cascade.Pipeline
	in, err := firstDenseIn(p.Local)
	if err != nil {
		return nil, err
	}
	classes, err := lastDenseOut(p.Cloud)
	if err != nil {
		return nil, err
	}
	full := nn.NewSequential(append(append([]nn.Layer{}, p.Local.Layers()...), p.Cloud.Layers()...)...)
	return &CascadeBackend{
		cascade: cascade,
		info: BackendInfo{
			Kind:      "cascade",
			Algorithm: "split.EarlyExit",
			InputDim:  in,
			Classes:   classes,
			NumParams: nn.NumParams(cascadeParams(cascade)),
			Workload:  mobile.WorkloadFor(full, p.Local, in, classes, p.RepDim(in)),
		},
	}, nil
}

// Describe implements Backend.
func (b *CascadeBackend) Describe() BackendInfo { return b.info }

// Params implements Backend in the fixed order local, cloud, exit.
func (b *CascadeBackend) Params() []*nn.Param { return cascadeParams(b.cascade) }

// Close implements Backend.
func (b *CascadeBackend) Close() error { return nil }

func cascadeParams(c *split.EarlyExit) []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, c.Pipeline.Local.Params()...)
	ps = append(ps, c.Pipeline.Cloud.Params()...)
	ps = append(ps, c.Exit.Params()...)
	return ps
}

// RunBatch implements Backend. Cascades are split deployments by
// construction — the deep half lives in the cloud and the perturbation
// calibration assumes offloading — so they serve under the split placement
// whenever it is feasible and fall back to fully-local execution (e.g.
// offline) otherwise.
func (b *CascadeBackend) RunBatch(ctx context.Context, env *ExecEnv, batch *tensor.Matrix, opts RequestOptions) (BatchResult, error) {
	cascade := b.cascade
	plan, err := choosePlan(env, b.info.Workload, mobile.PlaceSplit, mobile.PlaceLocal)
	if err != nil {
		return BatchResult{}, err
	}
	bl := trace.LogFrom(ctx)
	dev := bl.Begin("cascade.device")
	rep, err := cascade.Pipeline.TransformClean(batch)
	bl.EndErr(dev, err, trace.Num("rows", float64(batch.Rows())))
	if err != nil {
		return BatchResult{}, err
	}
	// rep is freshly produced per batch (TransformClean never aliases its
	// input) and consumed entirely below, so it feeds the pool afterwards —
	// each worker's next batch reuses it instead of allocating.
	defer tensor.Put(rep)
	exitProbs := tensor.Get(rep.Rows(), cascade.ExitClasses())
	defer tensor.Put(exitProbs)
	exit := bl.Begin("cascade.exit")
	preds, offload, err := cascade.ExitLocallyInto(exitProbs, rep)
	bl.EndErr(exit, err,
		trace.Num("local_exits", float64(rep.Rows()-len(offload))),
		trace.Num("offloads", float64(len(offload))))
	if err != nil {
		return BatchResult{}, err
	}
	results := resultsFromProbRows(exitProbs, preds, opts.TopK)
	for i := range results {
		results[i].Local = true
		results[i].Placement = plan.Placement
	}
	if len(offload) == 0 {
		return BatchResult{Results: results}, nil
	}

	// Unconfident rows go through the cloud half. Under the split placement
	// they pay the modeled transfer — and the privacy perturbation, unless
	// the request opted out; under the local placement (e.g. offline) the
	// cloud network runs on-device with neither. Local reports where the row
	// was answered, so offloaded rows set it false either way.
	overNet := plan.Placement != mobile.PlaceLocal
	cloudScores, err := b.cloudFinish(bl, env, rep, offload, overNet && !opts.NoPerturb)
	if err != nil {
		return BatchResult{}, err
	}
	var netMs float64
	if overNet {
		up := bl.Begin("cascade.uplink")
		netMs, err = env.TransferMs(plan.UpBytes, plan.DownBytes)
		bl.EndErr(up, err, trace.Num("sim_net_ms", netMs),
			trace.Num("up_bytes", float64(plan.UpBytes)),
			trace.Num("down_bytes", float64(plan.DownBytes)))
		if err != nil {
			return BatchResult{}, err
		}
	}
	cloudResults := resultsFromScores(cloudScores, opts.TopK, true)
	for k, i := range offload {
		r := cloudResults[k]
		r.Local = false
		r.Placement = plan.Placement
		r.SimNetMs = netMs
		results[i] = r
	}
	return BatchResult{Results: results}, nil
}

// cloudFinish gathers the offloaded rows of rep into a pooled buffer and
// runs the cascade's cloud network over them — perturbed (the split upload
// path) or clean — returning the freshly allocated logits. Only the
// perturbation's RNG draws are serialized; the deep cloud forward pass runs
// concurrently across workers (inference is stateless per the Layer
// contract).
func (b *CascadeBackend) cloudFinish(bl *trace.BatchLog, env *ExecEnv, rep *tensor.Matrix, offload []int, perturb bool) (*tensor.Matrix, error) {
	sub := tensor.Get(len(offload), rep.Cols())
	defer tensor.Put(sub)
	if err := rep.SelectRowsInto(sub, offload); err != nil {
		return nil, err
	}
	in := sub
	if perturb {
		ps := bl.Begin("cascade.perturb")
		var pert *tensor.Matrix
		err := env.WithRNG(func(rng *rand.Rand) error {
			var perr error
			pert, perr = b.cascade.Pipeline.Perturb(rng, sub)
			return perr
		})
		bl.EndErr(ps, err, trace.Num("rows", float64(len(offload))))
		if err != nil {
			return nil, err
		}
		defer tensor.Put(pert)
		in = pert
	}
	cs := bl.Begin("cascade.cloud")
	out, err := b.cascade.Pipeline.Cloud.Forward(in, false)
	bl.EndErr(cs, err, trace.Num("rows", float64(len(offload))))
	return out, err
}

// ---------------------------------------------------------------------------
// BaselineBackend

// BaselineBackend adapts any fitted baselines.Classifier — tree, forest,
// linear, boosting — to the serving seam, so the classical models answer
// through the same registry, batcher, and HTTP path as the neural ones.
// Classical models are orders of magnitude smaller than the networks the
// placement model prices, so they run where the runtime runs: always the
// local placement, no simulated traffic, no tensor parameters (Install-only,
// no weight-blob hot swap).
type BaselineBackend struct {
	clf  baselines.Classifier
	info BackendInfo
}

var _ Backend = (*BaselineBackend)(nil)

// NewBaselineBackend wraps a fitted classifier serving rows of width
// inputDim. Classifiers learn their class count at Fit time, so fitting
// must precede wrapping.
func NewBaselineBackend(clf baselines.Classifier, inputDim int) (*BaselineBackend, error) {
	if clf == nil {
		return nil, fmt.Errorf("%w: baseline backend needs a classifier", ErrServe)
	}
	if inputDim <= 0 {
		return nil, fmt.Errorf("%w: baseline backend input dim %d", ErrServe, inputDim)
	}
	classes := clf.Classes()
	if classes == 0 {
		return nil, fmt.Errorf("%w: classifier %q is not fitted (fit before serving)", ErrServe, clf.Name())
	}
	if err := probeClassifier(clf, inputDim, classes); err != nil {
		return nil, err
	}
	return &BaselineBackend{
		clf: clf,
		info: BackendInfo{
			Kind:      "baseline",
			Algorithm: clf.Name(),
			InputDim:  inputDim,
			Classes:   classes,
		},
	}, nil
}

// Describe implements Backend.
func (b *BaselineBackend) Describe() BackendInfo { return b.info }

// Params implements Backend: baselines carry no tensor parameters.
func (b *BaselineBackend) Params() []*nn.Param { return nil }

// Close implements Backend.
func (b *BaselineBackend) Close() error { return nil }

// probeClassifier classifies one zero row of the declared width, so a
// mismatch between inputDim and the classifier's fitted feature count fails
// at construction. Classifier exposes no feature count, and the tree-based
// models index rows by trained feature id — without this probe a too-narrow
// inputDim passes the batcher's width check and panics a worker at serve
// time instead.
func probeClassifier(clf baselines.Classifier, dim, classes int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: classifier %q cannot classify %d-feature rows: %v",
				ErrServe, clf.Name(), dim, r)
		}
	}()
	probs, perr := clf.PredictBatch(tensor.New(1, dim))
	if perr != nil {
		return fmt.Errorf("%w: classifier %q cannot classify %d-feature rows: %v",
			ErrServe, clf.Name(), dim, perr)
	}
	if probs.Cols() != classes {
		return fmt.Errorf("%w: classifier %q returned %d-class rows, Classes() says %d",
			ErrServe, clf.Name(), probs.Cols(), classes)
	}
	return nil
}

// RunBatch implements Backend.
func (b *BaselineBackend) RunBatch(ctx context.Context, _ *ExecEnv, batch *tensor.Matrix, opts RequestOptions) (BatchResult, error) {
	bl := trace.LogFrom(ctx)
	sp := bl.Begin("baseline.predict")
	probs, err := b.clf.PredictBatch(batch)
	bl.EndErr(sp, err, trace.Str("algorithm", b.info.Algorithm))
	if err != nil {
		return BatchResult{}, err
	}
	results := resultsFromScores(probs, opts.TopK, false)
	for i := range results {
		results[i].Local = true
		results[i].Placement = mobile.PlaceLocal
	}
	return BatchResult{Results: results}, nil
}

// ---------------------------------------------------------------------------
// Shared helpers

// choosePlan returns the first feasible plan among the wanted placements, in
// preference order (the cascade policy: split whenever feasible, local as
// the offline fallback).
func choosePlan(env *ExecEnv, w mobile.Workload, want ...mobile.Placement) (mobile.PlanCost, error) {
	plans := env.Plans(w)
	for _, p := range want {
		for _, plan := range plans {
			if plan.Feasible && plan.Placement == p {
				return plan, nil
			}
		}
	}
	return mobile.PlanCost{}, fmt.Errorf("%w: no feasible placement (network %s)", ErrServe, env.Net.Kind)
}

// cheapestPlan returns the lowest-latency feasible plan among the allowed
// placements (the dense policy: local vs cloud, whichever the cost model
// prices cheaper). Plans arrive feasible-first, cheapest-first.
func cheapestPlan(env *ExecEnv, w mobile.Workload, allowed ...mobile.Placement) (mobile.PlanCost, error) {
	for _, plan := range env.Plans(w) {
		if !plan.Feasible {
			continue
		}
		for _, p := range allowed {
			if plan.Placement == p {
				return plan, nil
			}
		}
	}
	return mobile.PlanCost{}, fmt.Errorf("%w: no feasible placement (network %s)", ErrServe, env.Net.Kind)
}

// resultsFromScores builds per-row Results from a score matrix: the argmax
// class always, plus the top-K probabilities when topK > 0. With
// needSoftmax the scores are logits and are normalized into pooled scratch
// first (skipped entirely at topK == 0, keeping the default path
// allocation-free past the Result slice); otherwise rows are already
// distributions.
func resultsFromScores(scores *tensor.Matrix, topK int, needSoftmax bool) []Result {
	results := make([]Result, scores.Rows())
	if topK <= 0 {
		for i := range results {
			results[i].Class = scores.ArgMaxRow(i)
		}
		return results
	}
	probs := scores
	if needSoftmax {
		probs = tensor.Get(scores.Rows(), scores.Cols())
		defer tensor.Put(probs)
		if err := tensor.SoftmaxInto(probs, scores); err != nil {
			// Shapes match by construction; a failure here is a programmer
			// error surfaced loudly in tests.
			panic(err)
		}
	}
	for i := range results {
		results[i].Class = probs.ArgMaxRow(i)
		results[i].Probs = topKRow(probs.Row(i), topK)
	}
	return results
}

// resultsFromProbRows builds Results from precomputed probabilities and
// predictions (the cascade exit path, where the softmax already ran for the
// confidence check).
func resultsFromProbRows(probs *tensor.Matrix, preds []int, topK int) []Result {
	results := make([]Result, len(preds))
	for i, c := range preds {
		results[i].Class = c
		if topK > 0 {
			results[i].Probs = topKRow(probs.Row(i), topK)
		}
	}
	return results
}

// topKRow selects the k highest-probability classes of one row, descending.
func topKRow(row []float64, k int) []ClassProb {
	if k > len(row) {
		k = len(row)
	}
	out := make([]ClassProb, 0, k)
	taken := make([]bool, len(row))
	for n := 0; n < k; n++ {
		best := -1
		for c, p := range row {
			if taken[c] {
				continue
			}
			if best < 0 || p > row[best] {
				best = c
			}
		}
		taken[best] = true
		out = append(out, ClassProb{Class: best, Prob: row[best]})
	}
	return out
}

// firstDenseIn returns the In of a network's first Dense layer — the
// feature width it serves.
func firstDenseIn(net *nn.Sequential) (int, error) {
	for _, l := range net.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			return d.In(), nil
		}
	}
	return 0, fmt.Errorf("%w: model has no dense layer to infer input width", ErrServe)
}

// lastDenseOut returns the Out of a network's last Dense layer — its class
// count.
func lastDenseOut(net *nn.Sequential) (int, error) {
	classes := 0
	for _, l := range net.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			classes = d.Out()
		}
	}
	if classes == 0 {
		return 0, fmt.Errorf("%w: model has no dense layer to infer class count", ErrServe)
	}
	return classes, nil
}
