package sim

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobiledl/internal/federated"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/serve"
)

// Options tune one scenario run without changing its outcome-relevant shape.
type Options struct {
	// Workers sizes the coordinator's client-training pool (0 = GOMAXPROCS).
	// Scenarios produce identical results at any worker count.
	Workers int
	// ReplayTargets, when non-empty, aims the traffic replay at external
	// base URLs (cluster mode: each target gets its own replay) instead of
	// the in-process serving stack.
	ReplayTargets []string
	// ReplayModel / ReplayDim override the model name and feature width the
	// replay posts in cluster mode — external nodes serve their own models,
	// not the simulator's. Zero values mean the in-process "sim" model and
	// its benchmark dimensionality.
	ReplayModel string
	ReplayDim   int
}

// Result is everything one scenario run observed.
type Result struct {
	Scenario Scenario
	// Rounds is the number of completed rounds; Accuracies the per-round
	// eval trajectory (one entry per evaluated round).
	Rounds        int
	Accuracies    []float64
	FinalAccuracy float64
	BestAccuracy  float64
	// RoundsPerSec is completed rounds over the training wall time.
	RoundsPerSec  float64
	TrainDuration time.Duration

	MergedUpdates int
	FailedClients int

	// HonestScore / AdversaryScore are the mean selector reputations of
	// observed honest vs adversarial clients (scored scenarios only).
	HonestScore    float64
	AdversaryScore float64

	// Replay holds one outcome per replay target (nil when the scenario has
	// no replay).
	Replay []*ReplayOutcome

	// ModelCheckpoint is the published model's serialized bytes — the
	// bit-exact artifact determinism tests compare.
	ModelCheckpoint []byte
	// PeakRSSBytes is the process high-water RSS (VmHWM) after the run.
	PeakRSSBytes int64

	History []federated.RoundStats
}

// Run executes one scenario end to end: build the population, train through
// a real coordinator publishing into a real registry, optionally serve and
// replay diurnal traffic concurrently, and collect the evidence.
func Run(ctx context.Context, sc Scenario, opts Options) (*Result, error) {
	sc.fill()
	pop, err := BuildPopulation(sc)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	defer reg.Close()
	trainer := newClientSim(pop, sc)

	cfg := fedserve.Config{
		Factory: pop.Factory,
		Shards:  pop.Shards,
		Classes: pop.Classes,
		EvalX:   pop.EvalX,
		EvalY:   pop.EvalY,
		Rounds:  sc.Rounds,
		Cohort:  sc.Cohort,
		Seed:    sc.Seed,
		Workers: opts.Workers,
		Trainer: trainer,
		// Tolerate transient regressions so poisoned runs still publish
		// recovered versions; the eval trajectory records every round.
		AccuracyDrop: 0.05,
		Registry:     reg,
		Model:        "sim",
	}
	if sc.Diurnal {
		cfg.Eligible = pop.Eligible
	}
	var selector *fedserve.ScoredSelector
	if sc.Scored {
		selector = fedserve.NewScoredSelector()
		cfg.Selector = selector
	}
	coord, err := fedserve.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}

	// Serving stack + replay targets. Solo mode serves the coordinator's
	// registry over a real HTTP server on a loopback port; cluster mode
	// replays against the caller's running nodes.
	targets := opts.ReplayTargets
	var httpSrv *http.Server
	var serveSrv *serve.Server
	if sc.Replay != nil && len(targets) == 0 {
		serveSrv = serve.NewServerWith(reg, serve.ServerConfig{
			DefaultTimeout: 2 * time.Second,
		})
		rt, err := serve.NewRuntime(serve.RuntimeConfig{Registry: reg, Model: "sim"})
		if err != nil {
			return nil, err
		}
		serveSrv.Add(rt)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("sim: listen: %w", err)
		}
		httpSrv = &http.Server{Handler: serveSrv.Handler()}
		go httpSrv.Serve(ln)
		targets = []string{"http://" + ln.Addr().String()}
		defer func() {
			httpSrv.Close()
			serveSrv.Close()
		}()
	}

	// Stop the coordinator if the caller's context dies mid-run.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			coord.Stop()
		case <-watchDone:
		}
	}()

	res := &Result{Scenario: sc}
	var replayMu sync.Mutex
	var replayErr error
	var wg sync.WaitGroup
	if sc.Replay != nil {
		replayModel := opts.ReplayModel
		if replayModel == "" {
			replayModel = "sim"
		}
		features := pop.EvalX.Row(0)
		if opts.ReplayDim > 0 {
			features = make([]float64, opts.ReplayDim)
			for j := range features {
				features[j] = 0.3
			}
		}
		res.Replay = make([]*ReplayOutcome, len(targets))
		for i, target := range targets {
			wg.Add(1)
			go func(i int, target string) {
				defer wg.Done()
				out, err := runReplay(ctx, replayConfig{
					BaseURL:  target,
					Model:    replayModel,
					Features: features,
					Spec:     *sc.Replay,
				})
				replayMu.Lock()
				defer replayMu.Unlock()
				if err != nil {
					replayErr = fmt.Errorf("sim: replay %s: %w", target, err)
					return
				}
				res.Replay[i] = out
			}(i, target)
		}
	}

	began := time.Now()
	if err := coord.Start(); err != nil {
		return nil, err
	}
	coord.Wait()
	res.TrainDuration = time.Since(began)
	wg.Wait()
	if replayErr != nil {
		return nil, replayErr
	}

	st := coord.Status()
	res.Rounds = st.Round
	res.MergedUpdates = st.MergedUpdates
	res.FailedClients = st.FailedClients
	res.FinalAccuracy = st.LastAccuracy
	res.BestAccuracy = st.BestAccuracy
	res.History = coord.History()
	for _, rs := range res.History {
		if rs.Accuracy >= 0 {
			res.Accuracies = append(res.Accuracies, rs.Accuracy)
		}
	}
	if res.TrainDuration > 0 {
		res.RoundsPerSec = float64(res.Rounds) / res.TrainDuration.Seconds()
	}
	if selector != nil {
		res.HonestScore, res.AdversaryScore = scoreSplit(pop, selector)
	}
	if ckpt, err := reg.Checkpoint("sim"); err == nil {
		res.ModelCheckpoint = ckpt
	}
	res.PeakRSSBytes = peakRSS()
	return res, ctx.Err()
}

// scoreSplit averages the selector's reputations over observed honest vs
// adversarial clients.
func scoreSplit(pop *Population, sel *fedserve.ScoredSelector) (honest, adversary float64) {
	var hn, an int
	for k, score := range sel.Scores() {
		if pop.Profile(k).Adversarial {
			adversary += score
			an++
		} else {
			honest += score
			hn++
		}
	}
	if hn > 0 {
		honest /= float64(hn)
	}
	if an > 0 {
		adversary /= float64(an)
	}
	return honest, adversary
}

// peakRSS reads the process high-water RSS (VmHWM) in bytes; 0 when the
// platform does not expose /proc.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return kb << 10
			}
		}
	}
	return 0
}
