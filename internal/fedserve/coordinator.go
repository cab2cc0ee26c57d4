package fedserve

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mobiledl/internal/data"
	"mobiledl/internal/federated"
	"mobiledl/internal/nn"
	"mobiledl/internal/privacy"
	"mobiledl/internal/serve"
	"mobiledl/internal/tensor"
	"mobiledl/internal/trace"
)

// ErrConfig reports an invalid coordinator configuration.
var ErrConfig = errors.New("fedserve: invalid configuration")

// ErrState reports a control operation that is invalid in the coordinator's
// current state (e.g. pausing a coordinator that was never started).
var ErrState = errors.New("fedserve: invalid state transition")

// State is the coordinator lifecycle state.
type State string

// Coordinator states. Idle coordinators have published their initial version
// but run no rounds; Stopped is terminal (reached via Stop or by exhausting
// Config.Rounds).
const (
	StateIdle    State = "idle"
	StateRunning State = "running"
	StatePaused  State = "paused"
	StateStopped State = "stopped"
)

// DPConfig enables user-level differentially private aggregation: each
// client delta is clipped to joint L2 norm Clip, the round average uses the
// fixed-denominator estimator over the expected cohort, and Gaussian noise
// with multiplier Sigma is added — the DP-FedAvg server step (see
// privacy.RunDPFedAvg). The coordinator's moments accountant reports the
// cumulative epsilon in Status: one noisy release per synchronous round,
// sampled at q = ClientFraction, or Cohort/len(Shards) when Cohort is set.
type DPConfig struct {
	Clip  float64 //nolint:deadexport // set once the ROADMAP item "Every ε … certified" serves DP rounds
	Sigma float64 //nolint:deadexport // set once the ROADMAP item "Every ε … certified" serves DP rounds
	// Delta is the accountant's delta for the reported epsilon (default 1e-5).
	Delta float64 //nolint:deadexport // set once the ROADMAP item "Every ε … certified" serves DP rounds
}

// Config wires a Coordinator: the federated task (factory, shards, held-out
// eval set), the round knobs, the privacy policy, and the serving registry
// accepted models publish into.
type Config struct {
	// Factory builds architecture-aligned models: the global model, each
	// client's local model, and every published serving copy.
	Factory federated.ModelFactory
	// Shards are the per-client local datasets.
	Shards  []*data.ClientShard
	Classes int
	// EvalX/EvalY are the held-out set gating publication.
	EvalX *tensor.Matrix
	EvalY []int

	// Rounds bounds the run (0 = run until Stop).
	Rounds int
	// ClientFraction samples the eligible cohort each round (default 1).
	ClientFraction float64
	// Cohort, when positive, fixes the round cohort size instead of
	// ClientFraction — the natural knob when the population is huge and the
	// eligible count swings round to round (scenario simulation).
	Cohort      int
	LocalEpochs int // default 1
	LocalBatch  int
	LocalLR     float64
	Seed        int64
	// Workers sizes each round's client-training pool (0 = GOMAXPROCS).
	Workers int
	// Scheduler, if non-nil, gates device eligibility per round.
	Scheduler *federated.Scheduler
	// Eligible, if non-nil, additionally gates per-(round, client)
	// eligibility — the client-injection seam simulators use for diurnal
	// participation curves and clock-skewed populations. It is consulted on
	// the driver goroutine for every client each round, so it must be cheap
	// and must not block.
	Eligible func(round, k int) bool
	// Trainer overrides the default SGDTrainer built from the Local* knobs.
	// A Trainer that also implements federated.ClientTrainer receives the
	// round and client index with each call (pluggable client behavior).
	Trainer federated.Trainer
	// Selector, if non-nil, owns cohort selection and per-client merge
	// weighting — e.g. a ScoredSelector that down-weights clients whose
	// updates fail or deviate anomalously in magnitude. Nil keeps the
	// default uniform selection and pure n_k weighting.
	Selector ClientSelector

	// Quorum is kept for source compatibility only: every round waits for
	// its whole cohort. 0 and 1 are accepted; anything else is ErrConfig.
	Quorum float64

	// DP, if non-nil, makes aggregation differentially private.
	DP *DPConfig //nolint:deadexport // set once the ROADMAP item "Every ε … certified" serves DP rounds

	// Registry and Model name the published servable. The coordinator
	// publishes its initial global model at construction so serving can
	// begin before the first round completes.
	Registry *serve.Registry
	Model    string
	// EvalEvery sets the eval-and-maybe-publish cadence in rounds (default 1).
	EvalEvery int
	// AccuracyDrop tolerates publishing a version up to this much below the
	// best published accuracy (default 0: never publish a regression).
	AccuracyDrop float64
	// RoundInterval paces the loop between rounds (0 = run flat out).
	RoundInterval time.Duration

	// Checkpoint, if non-nil, persists round state (global weights, round
	// counter, accumulated status, privacy spend) so a restarted coordinator
	// resumes from the last checkpoint instead of round 0. Checkpoint
	// failures degrade gracefully: training continues, the error is counted.
	// A checkpoint follows every round that merged updates.
	Checkpoint CheckpointStore

	// Tracer, when set, samples coordinator rounds into long-lived traces
	// (select -> client fan-out -> merge -> eval -> publish). Nil disables
	// round tracing.
	Tracer *trace.Tracer
	// Logger receives structured training logs; nil means slog.Default().
	Logger *slog.Logger
}

func (c *Config) validate() error {
	switch {
	case c.Factory == nil:
		return fmt.Errorf("%w: nil model factory", ErrConfig)
	case len(c.Shards) == 0:
		return fmt.Errorf("%w: no client shards", ErrConfig)
	case c.Classes < 2:
		return fmt.Errorf("%w: %d classes", ErrConfig, c.Classes)
	case c.EvalX == nil || len(c.EvalY) == 0 || c.EvalX.Rows() != len(c.EvalY):
		return fmt.Errorf("%w: held-out eval set missing or misaligned", ErrConfig)
	case c.Registry == nil || c.Model == "":
		return fmt.Errorf("%w: publication needs a registry and model name", ErrConfig)
	case c.Rounds < 0:
		return fmt.Errorf("%w: Rounds=%d", ErrConfig, c.Rounds)
	case c.ClientFraction < 0 || c.ClientFraction > 1:
		return fmt.Errorf("%w: ClientFraction=%v", ErrConfig, c.ClientFraction)
	case c.Cohort < 0:
		return fmt.Errorf("%w: Cohort=%d", ErrConfig, c.Cohort)
	case c.Quorum != 0 && c.Quorum != 1:
		return fmt.Errorf("%w: Quorum=%v (rounds are synchronous)", ErrConfig, c.Quorum)
	case c.Trainer == nil && c.LocalLR <= 0:
		return fmt.Errorf("%w: LocalLR=%v with no custom Trainer", ErrConfig, c.LocalLR)
	}
	if c.DP != nil && (c.DP.Clip <= 0 || c.DP.Sigma < 0) {
		return fmt.Errorf("%w: DP clip=%v sigma=%v", ErrConfig, c.DP.Clip, c.DP.Sigma)
	}
	return nil
}

// PublishedVersion is one accepted, registry-installed model version.
type PublishedVersion struct {
	Version  int       `json:"version"`
	Round    int       `json:"round"`
	Accuracy float64   `json:"accuracy"`
	At       time.Time `json:"at"`
}

// Status is a point-in-time snapshot of the coordinator, the payload of
// GET /v1/train/status.
type Status struct {
	State State  `json:"state"`
	Model string `json:"model"`
	// Round is the last completed round (0 before any round finishes).
	Round int `json:"round"`
	// InFlight is the cohort of the round now training (0 between rounds).
	InFlight int `json:"in_flight"`
	// MergedUpdates counts client updates folded into the global model
	// across the run.
	MergedUpdates int `json:"merged_updates"`
	// FailedClients counts client training errors (skipped, not fatal).
	FailedClients int     `json:"failed_clients"`
	LastLoss      float64 `json:"last_loss"`
	LastAccuracy  float64 `json:"last_accuracy"`
	BestAccuracy  float64 `json:"best_accuracy"`
	// RejectedRounds counts evals that regressed past AccuracyDrop and were
	// not published.
	RejectedRounds int    `json:"rejected_rounds"`
	UpBytes        int64  `json:"up_bytes"`
	DownBytes      int64  `json:"down_bytes"`
	LastError      string `json:"last_error,omitempty"`
	// Epsilon is the cumulative user-level privacy spend (DP runs only).
	Epsilon   float64            `json:"epsilon,omitempty"`
	Published []PublishedVersion `json:"published"`
	// StartRound is the checkpointed round this run resumed from (0 = fresh
	// start); Checkpoints / CheckpointErrors count persisted round states and
	// failed saves or loads across the run.
	StartRound       int `json:"start_round,omitempty"`
	Checkpoints      int `json:"checkpoints,omitempty"`
	CheckpointErrors int `json:"checkpoint_errors,omitempty"`
}

// Coordinator owns the continuous federated train-to-serve loop: it runs
// synchronous rounds (device eligibility, parallel client fan-out, one FedAvg
// or DP-FedAvg server step at the barrier), evaluates the global model on the
// held-out set, and hot-publishes accepted versions into the serving
// registry. Construction publishes the initial model as version 1 so a
// serve.Runtime can be attached before training starts; Start launches the
// round loop, Pause/Stop control it, and Status snapshots progress at any
// time from any goroutine.
type Coordinator struct {
	cfg     Config
	global  *nn.Sequential
	vals    []*tensor.Matrix
	eval    func(*nn.Sequential) (float64, error)
	rng     *rand.Rand
	acct    *privacy.MomentsAccountant
	dpDenom float64
	// round runs each round's fan-out, server step and traffic accounting;
	// it owns the cumulative byte counters Status mirrors.
	round federated.Round

	evalEvery int
	tracer    *trace.Tracer
	logger    *slog.Logger

	doneCh   chan struct{}
	stopOnce sync.Once
	stopCh   chan struct{}

	// driver-goroutine state (no locking needed).
	mergedSinceEval int
	mergedSinceCk   int
	history         []federated.RoundStats

	// startRound is the checkpointed round this run resumed from (0 fresh);
	// lastRound bounds the run at startRound+Rounds (0 = unbounded).
	startRound int
	lastRound  int

	mu      sync.Mutex
	cond    *sync.Cond
	state   State
	started bool
	status  Status
}

// NewCoordinator validates the config, builds the global model, evaluates
// it, and publishes it as the model's initial version so serving can begin
// immediately. The round loop does not run until Start.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ClientFraction == 0 {
		cfg.ClientFraction = 1
	}
	if cfg.LocalEpochs <= 0 {
		cfg.LocalEpochs = 1
	}
	global, err := cfg.Factory()
	if err != nil {
		return nil, fmt.Errorf("fedserve: build global model: %w", err)
	}
	trainer := cfg.Trainer
	if trainer == nil {
		trainer = &federated.SGDTrainer{
			Factory: cfg.Factory,
			Classes: cfg.Classes,
			Epochs:  cfg.LocalEpochs,
			Batch:   cfg.LocalBatch,
			LR:      cfg.LocalLR,
		}
	}
	vals := federated.ParamValues(global.Params())
	c := &Coordinator{
		cfg:       cfg,
		global:    global,
		vals:      vals,
		eval:      federated.AccuracyEval(cfg.EvalX, cfg.EvalY),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		round:     federated.Round{Trainer: trainer, Shards: cfg.Shards, Global: vals, Workers: cfg.Workers},
		evalEvery: max(cfg.EvalEvery, 1),
		tracer:    cfg.Tracer,
		logger:    cfg.Logger,
		doneCh:    make(chan struct{}),
		stopCh:    make(chan struct{}),
		state:     StateIdle,
	}
	if c.logger == nil {
		c.logger = slog.Default()
	}
	c.cond = sync.NewCond(&c.mu)
	// DP sampling ratio: a fixed Cohort out of the population when set, else
	// ClientFraction. It prices epsilon and fixes the averaging denominator
	// q*W (the expected cohort, at least one client).
	q := cfg.ClientFraction
	if cfg.Cohort > 0 {
		q = math.Min(1, float64(cfg.Cohort)/float64(len(cfg.Shards)))
	}
	if cfg.DP != nil && cfg.DP.Sigma > 0 {
		c.acct, err = privacy.NewMomentsAccountant(cfg.DP.Sigma, q)
		if err != nil {
			return nil, err
		}
	}
	c.dpDenom = math.Max(1, q*float64(len(cfg.Shards)))
	c.status = Status{State: StateIdle, Model: cfg.Model, LastAccuracy: -1, BestAccuracy: -1}

	resumed := false
	if cfg.Checkpoint != nil {
		resumed, err = c.resume()
		if err != nil {
			return nil, err
		}
	}
	if cfg.Rounds > 0 {
		c.lastRound = c.startRound + cfg.Rounds
	}

	// Publish the current global so traffic has a version to hit — the
	// untrained round-0 model on a fresh start, the checkpointed weights on
	// resume. When boot recovery already reinstalled the model from the
	// publish log, the recovered version keeps serving and the republish is
	// skipped (re-publishing identical weights would just burn a version).
	if resumed {
		if _, err := cfg.Registry.Get(cfg.Model); err == nil {
			return c, nil
		}
	}
	acc, err := c.eval(c.global)
	if err != nil {
		return nil, fmt.Errorf("fedserve: initial eval: %w", err)
	}
	if err := c.publish(c.startRound, acc); err != nil {
		return nil, err
	}
	return c, nil
}

// Start launches the round loop (idle) or resumes it (paused). Starting a
// running coordinator is a no-op; starting a stopped one is ErrState.
func (c *Coordinator) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StateStopped:
		return fmt.Errorf("%w: coordinator is stopped", ErrState)
	case StateRunning:
		return nil
	case StatePaused:
		c.setStateLocked(StateRunning)
		c.cond.Broadcast()
		return nil
	}
	c.setStateLocked(StateRunning)
	c.started = true
	go c.run()
	return nil
}

// Pause suspends the round loop at the next round boundary: the round in
// progress trains, merges and publishes first. Pausing an unstarted or
// stopped coordinator is ErrState.
func (c *Coordinator) Pause() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StatePaused:
		return nil
	case StateRunning:
		c.setStateLocked(StatePaused)
		c.cond.Broadcast()
		return nil
	}
	return fmt.Errorf("%w: cannot pause a coordinator that is %s", ErrState, c.state)
}

// Stop terminates the round loop after the round in progress and waits for
// it to wind down. Terminal and idempotent.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	wasStarted := c.started
	c.setStateLocked(StateStopped)
	c.cond.Broadcast()
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stopCh) })
	if wasStarted {
		<-c.doneCh
	}
}

// Wait blocks until the round loop exits — Config.Rounds exhausted or Stop
// called. It must follow a successful Start.
func (c *Coordinator) Wait() { <-c.doneCh }

// Status snapshots coordinator progress; safe from any goroutine.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.status
	st.Published = append([]PublishedVersion(nil), c.status.Published...)
	return st
}

// History returns the per-round statistics recorded so far (Accuracy -1 on
// rounds that were not evaluated), in round order.
func (c *Coordinator) History() []federated.RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]federated.RoundStats(nil), c.history...)
}

func (c *Coordinator) setStateLocked(s State) {
	c.state = s
	c.status.State = s
}

// run is the driver goroutine: the continuous round loop.
func (c *Coordinator) run() {
	defer c.shutdown()
	// Rounds are absolute across restarts: a resumed run continues the
	// checkpointed numbering and runs Config.Rounds more rounds from there.
	for round := c.startRound + 1; c.lastRound == 0 || round <= c.lastRound; round++ {
		if !c.awaitRunnable() {
			return
		}
		progressed := c.runRound(round)
		pause := c.cfg.RoundInterval
		if !progressed && pause < idleBackoff {
			// No eligible devices: back off instead of spinning the driver
			// at 100% CPU on an unbounded run.
			pause = idleBackoff
		}
		if pause > 0 {
			select {
			case <-time.After(pause):
			case <-c.stopCh:
				return
			}
		}
	}
}

// idleBackoff paces rounds that could do no work at all.
const idleBackoff = 50 * time.Millisecond

// awaitRunnable blocks while paused and reports whether the loop should
// continue (false = stopped).
func (c *Coordinator) awaitRunnable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.state == StatePaused {
		c.cond.Wait()
	}
	return c.state == StateRunning
}

// runRound executes one synchronous round: select the cohort, hand it to
// federated.Round (fan-out barrier, then serverStep), and on the cadences
// evaluate, maybe publish, and checkpoint. It reports whether a cohort was
// selected at all.
//
// Sampled rounds become long-lived traces. Every span write happens on this
// driver goroutine: client training is recorded after the barrier from the
// worker-stamped times each Update carries.
func (c *Coordinator) runRound(round int) bool {
	var sp trace.Span
	if c.tracer.Sample() {
		sp = c.tracer.Start("fed.round",
			trace.Str("model", c.cfg.Model), trace.Num("round", float64(round)))
	}

	sel := sp.Child("select")
	selected, seeds := c.selectCohort(round)
	sel.End(trace.Num("cohort", float64(len(selected))))

	// The fan-out span ends at the barrier, where Round hands the updates to
	// the server step; if the step never runs, FanOut refused the cohort.
	fan := sp.Child("fanout")
	var ms trace.Span
	stepped := false
	st, updates, err := c.round.Run(round, selected, seeds, func(global []*tensor.Matrix, merged, failed []federated.Update) (float64, error) {
		stepped = true
		fan.End()
		ms = sp.Child("merge")
		return c.serverStep(round, global, merged, failed)
	})
	for _, u := range updates {
		cs := fan.ChildAt("client", u.Start, u.End.Sub(u.Start),
			trace.Num("client", float64(u.Client)),
			trace.Num("samples", float64(u.N)))
		if u.Err != nil {
			cs.Annotate(trace.Str("error", u.Err.Error()))
		}
	}
	if !stepped {
		fan.EndErr(err)
	}
	fan.Annotate(trace.Num("collected", float64(len(updates))))
	c.record(st, len(updates)-st.ParticipatingUsers, err)
	ms.End(trace.Num("merged_total", float64(c.status.MergedUpdates)))

	// Evaluate on the cadence, but only when training actually advanced:
	// rounds with no eligible devices (or only failed updates) would
	// otherwise republish an unchanged model every EvalEvery rounds.
	if c.mergedSinceEval > 0 && (round%c.evalEvery == 0 || round == c.lastRound) {
		c.mergedSinceEval = 0
		c.evalAndMaybePublish(round, sp)
	}

	// Checkpoint once training has advanced past the last durable state; a
	// failed save leaves mergedSinceCk pending so the next round retries.
	if c.cfg.Checkpoint != nil && c.mergedSinceCk > 0 {
		c.checkpoint(round, sp)
	}
	sp.End(trace.Num("collected", float64(len(updates))))
	return len(selected) > 0
}

// selectCohort draws this round's cohort among the eligible clients and one
// training seed per selected client.
func (c *Coordinator) selectCohort(round int) (selected []int, seeds []int64) {
	eligible := make([]int, 0, len(c.cfg.Shards))
	for k := range c.cfg.Shards {
		if c.cfg.Scheduler != nil && !c.cfg.Scheduler.Eligible(k) {
			continue
		}
		if c.cfg.Eligible != nil && !c.cfg.Eligible(round, k) {
			continue
		}
		eligible = append(eligible, k)
	}
	if c.cfg.Scheduler != nil {
		c.cfg.Scheduler.Advance()
	}
	if len(eligible) == 0 {
		return nil, nil
	}
	m := int(c.cfg.ClientFraction * float64(len(eligible)))
	if c.cfg.Cohort > 0 {
		m = c.cfg.Cohort
	}
	m = min(max(m, 1), len(eligible))
	if c.cfg.Selector != nil {
		selected = c.cfg.Selector.Pick(c.rng, eligible, m)
	} else {
		c.rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
		selected = eligible[:m]
	}
	// Sort the cohort so merge order (and each client's seed) is a function
	// of the selection set alone, then pre-draw seeds before any concurrency.
	sort.Ints(selected)
	seeds = make([]int64, len(selected))
	for i := range seeds {
		seeds[i] = c.rng.Int63()
	}
	c.mu.Lock()
	c.status.InFlight = len(selected)
	c.mu.Unlock()
	return selected, seeds
}

// serverStep is the coordinator's federated.Step. The Selector, when one is
// configured, observes the round's outcomes first, so an update flagged
// anomalous this round is down-weighted in this round's own merge; then one
// federated.MergeWeighted (n_k times the Selector's weight) or
// privacy.DPFedAvgStep folds the merged updates into the global. A round
// that merged nothing takes no step.
func (c *Coordinator) serverStep(round int, global []*tensor.Matrix, merged, failed []federated.Update) (float64, error) {
	var weights []float64
	if sel := c.cfg.Selector; sel != nil {
		outcomes := make([]ClientOutcome, 0, len(merged)+len(failed))
		for _, u := range merged {
			outcomes = append(outcomes, ClientOutcome{Client: u.Client, Round: round, Samples: u.N, Loss: u.Loss,
				DeltaNorm: deltaNorm(u.Weights, global)})
		}
		for _, u := range failed {
			outcomes = append(outcomes, ClientOutcome{Client: u.Client, Round: round, Samples: u.N, Loss: u.Loss, Failed: true})
		}
		sel.ObserveRound(outcomes)
		weights = make([]float64, len(merged))
		for i, u := range merged {
			weights[i] = float64(u.N) * sel.Weight(u.Client)
		}
	}
	switch {
	case len(merged) == 0:
		return 0, nil
	case c.cfg.DP != nil:
		return privacy.DPFedAvgStep(c.rng, global, merged, c.cfg.DP.Clip, c.cfg.DP.Sigma, c.dpDenom)
	}
	return federated.MergeWeighted(global, merged, weights)
}

// record folds one round's stats into the status, the privacy spend and the
// round log. failed counts the clients whose training errored; err is the
// round's error, which the coordinator reports and survives.
func (c *Coordinator) record(st federated.RoundStats, failed int, err error) {
	merged := st.ParticipatingUsers
	if err != nil {
		err = fmt.Errorf("round %d: %w", st.Round, err)
		c.logger.Warn("round had client or merge failures",
			"model", c.cfg.Model, "round", st.Round, "failed", failed, "err", err)
	}
	c.logger.Debug("round merged",
		"model", c.cfg.Model, "round", st.Round,
		"merged", merged, "failed", failed, "loss", st.TrainLoss)

	c.mergedSinceEval += merged
	c.mergedSinceCk += merged

	c.mu.Lock()
	c.status.Round = st.Round
	c.status.InFlight = 0
	c.status.MergedUpdates += merged
	c.status.FailedClients += failed
	c.status.UpBytes, c.status.DownBytes = st.CumulativeUpBytes, st.CumulativeDownBytes
	if merged > 0 {
		c.status.LastLoss = st.TrainLoss
	}
	switch {
	case err != nil:
		c.status.LastError = err.Error()
	case merged > 0:
		// A clean merge clears any stale error, so /v1/train/status reports
		// current health rather than ancient history.
		c.status.LastError = ""
	}
	if c.acct != nil && merged > 0 {
		c.acct.AccumulateSteps(1)
		if eps, err := c.acct.Epsilon(c.dpDelta()); err == nil {
			c.status.Epsilon = eps
		}
	}
	c.history = append(c.history, st)
	if len(c.history) > historyCap {
		c.history = c.history[len(c.history)-historyCap:]
	}
	c.mu.Unlock()
}

// historyCap bounds the in-memory round log for unbounded runs.
const historyCap = 4096

func (c *Coordinator) dpDelta() float64 {
	if c.cfg.DP.Delta > 0 {
		return c.cfg.DP.Delta
	}
	return 1e-5
}

// deltaNorm is the joint L2 norm of a client's parameter delta against the
// global it trained from (the magnitude signal anomaly-scoring selectors
// judge updates by).
func deltaNorm(weights, global []*tensor.Matrix) float64 {
	var sq float64
	for i, w := range weights {
		gd := global[i].Data()
		for j, v := range w.Data() {
			d := v - gd[j]
			sq += d * d
		}
	}
	return math.Sqrt(sq)
}

// evalAndMaybePublish scores the global model on the held-out set and
// publishes it as a new registry version unless it regresses more than
// AccuracyDrop below the best published accuracy. Training always continues
// from the merged state; only publication is gated. sp is the round's trace
// span (inactive when the round is untraced).
func (c *Coordinator) evalAndMaybePublish(round int, sp trace.Span) {
	es := sp.Child("eval")
	acc, err := c.eval(c.global)
	es.EndErr(err, trace.Num("accuracy", acc))

	c.mu.Lock()
	if err != nil {
		c.status.LastError = fmt.Sprintf("round %d eval: %v", round, err)
		c.mu.Unlock()
		c.logger.Error("eval failed", "model", c.cfg.Model, "round", round,
			"trace_id", sp.TraceID(), "err", err)
		return
	}
	c.status.LastAccuracy = acc
	if n := len(c.history); n > 0 && c.history[n-1].Round == round {
		c.history[n-1].Accuracy = acc
	}
	accept := acc >= c.status.BestAccuracy-c.cfg.AccuracyDrop
	if !accept {
		c.status.RejectedRounds++
	}
	c.mu.Unlock()

	if !accept {
		sp.Annotate(trace.Str("publish", "rejected"))
		c.logger.Info("publication rejected (accuracy regression)",
			"model", c.cfg.Model, "round", round, "accuracy", acc)
		return
	}
	ps := sp.Child("publish")
	err = c.publish(round, acc)
	ps.EndErr(err)
	if err != nil {
		c.mu.Lock()
		c.status.LastError = fmt.Sprintf("round %d publish: %v", round, err)
		c.mu.Unlock()
		c.logger.Error("publish failed", "model", c.cfg.Model, "round", round,
			"trace_id", sp.TraceID(), "err", err)
	}
}

// publish copies the global weights into a fresh factory-built model and
// hot-swaps that copy into the registry with round/accuracy provenance. The
// served model is decoupled from the training model: the coordinator keeps
// mutating the global while the published version stays frozen.
func (c *Coordinator) publish(round int, acc float64) error {
	fresh, err := c.cfg.Factory()
	if err != nil {
		return err
	}
	if err := federated.SetWeights(fresh.Params(), c.vals); err != nil {
		return err
	}
	backend, err := serve.NewDenseBackend(fresh)
	if err != nil {
		return err
	}
	version, err := c.cfg.Registry.InstallWithMeta(c.cfg.Model, backend, &serve.VersionMeta{
		Source: "fedserve", Round: round, Accuracy: acc,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.status.LastAccuracy = acc
	if acc > c.status.BestAccuracy {
		c.status.BestAccuracy = acc
	}
	c.status.Published = append(c.status.Published, PublishedVersion{
		Version: version, Round: round, Accuracy: acc, At: time.Now(),
	})
	c.mu.Unlock()
	c.logger.Info("published model version",
		"model", c.cfg.Model, "version", version, "round", round, "accuracy", acc)
	return nil
}

// shutdown saves any merged-but-unsaved rounds and marks the coordinator
// stopped.
func (c *Coordinator) shutdown() {
	// Final checkpoint so a clean Stop never loses merged-but-unsaved rounds.
	if c.cfg.Checkpoint != nil && c.mergedSinceCk > 0 {
		c.mu.Lock()
		round := c.status.Round
		c.mu.Unlock()
		c.checkpoint(round, trace.Span{})
	}
	c.mu.Lock()
	c.setStateLocked(StateStopped)
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.doneCh)
}
