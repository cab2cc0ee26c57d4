package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"mobiledl/internal/federated"
	"mobiledl/internal/fedserve"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
)

// Round settings of train_publish, part of the workload.
const (
	fedCohort = 16
	fedBatch  = 20
	fedLR     = 0.05
	// accuracyFloor is the held-out accuracy the last published model must
	// reach in any loop of at least accuracyFloorRounds rounds. The defining
	// commit is past 0.99 by then on every seed tried and a full run has
	// twenty times as many rounds, so a miss means training broke.
	accuracyFloor       = 0.9
	accuracyFloorRounds = 20
)

// training is train_publish's stack: a coordinator publishing into a
// store-backed registry that a runtime serves to the reader.
type training struct {
	*stack
	task   *fedTask
	coord  *fedserve.Coordinator
	reader *loadgen
	dir    string
	rounds int
}

// rounds is the fixed round count for a round loop meant to last share of
// the run.
func (r *run) rounds(share float64) int {
	return max(int(math.Round(r.sp.roundsPerSecond*r.o.seconds*share)), 2)
}

// setupTraining generates the federated task and brings the whole
// train-to-serve stack up to its first verified answer: store open, registry
// persisting through it, coordinator constructed (which publishes version 1),
// runtime and listener up.
func (r *run) setupTraining(rec *recorder, rounds int, first *phase) (*training, error) {
	sp, seed := r.sp, r.o.seed
	task, err := genFedTask(seed)
	if err != nil {
		return nil, err
	}
	tr := &training{stack: &stack{}, task: task, dir: r.dataDir(), rounds: rounds}
	fail := func(err error) (*training, error) {
		tr.close()
		return nil, fmt.Errorf("build %s stack: %w", sp.name, err)
	}
	if err := tr.openRegistry(sp, tr.dir, rec); err != nil {
		return fail(err)
	}
	factory := func() (*nn.Sequential, error) { return buildNet(sp.layers, seed), nil }
	cfg := fedserve.Config{
		Factory: factory, Shards: task.shards, Classes: fedClasses,
		EvalX: task.evalX, EvalY: task.evalY,
		Rounds: rounds, Cohort: fedCohort, LocalEpochs: 1, LocalBatch: fedBatch, LocalLR: fedLR,
		Seed: seed, Workers: nproc(), Quorum: 1,
		Registry: tr.reg, Model: modelName, EvalEvery: 1, AccuracyDrop: 1,
		Checkpoint: tr.persist, Logger: quiet,
	}
	if rec != nil {
		// The coordinator's own default, rebuilt here only so that it can be
		// wrapped; the untraced run leaves Trainer nil.
		cfg.Trainer = rec.trainer(&federated.SGDTrainer{
			Factory: factory, Classes: fedClasses, Epochs: 1, Batch: fedBatch, LR: fedLR,
		})
	}
	if tr.coord, err = fedserve.NewCoordinator(cfg); err != nil {
		return fail(err)
	}
	tr.closers = append(tr.closers, tr.coord.Stop)
	if err := tr.serveModel(sp, rec); err != nil {
		return fail(err)
	}
	tr.reader = &loadgen{
		client: tr.client, url: tr.url, bodies: task.readerBodies,
		rows: 1, classes: fedClasses, tagged: rec != nil,
	}
	if err := firstRequest(tr.reader, first); err != nil {
		return fail(err)
	}
	return tr, nil
}

// trained is what one round loop left behind.
type trained struct {
	wall    time.Duration
	cpu     time.Duration
	reader  *phase
	status  fedserve.Status
	version int   // live registry version after the last round
	classes []int // the live model's answers to the held-out set
	mem     [2]runtime.MemStats
	stats   [2]serve.Stats
}

// roundLoop runs the coordinator's fixed rounds flat out while one reader
// sends single-row predicts on an open-loop schedule to the model being
// hot-swapped, then checks what the loop published.
func (r *run) roundLoop(tr *training, rec *recorder, label string) (*trained, error) {
	// The schedule is cut off when the rounds finish; ten times the intended
	// length is only a bound on how far a slow commit can stretch it.
	schedule := genSchedule(r.o.seed, r.sp.openRate, 10*time.Duration(float64(tr.rounds)/r.sp.roundsPerSecond*float64(time.Second)))
	stopReader := make(chan struct{})
	readerDone := make(chan *phase, 1)
	out := &trained{}
	out.stats[0] = tr.rt.Stats()
	runtime.ReadMemStats(&out.mem[0])
	go func() { readerDone <- tr.reader.openLoop(label+"-reader", 1, schedule, stopReader) }()
	cpu0 := cpuTime()
	start := time.Now()
	if err := tr.coord.Start(); err != nil {
		close(stopReader)
		<-readerDone
		return nil, err
	}
	tr.coord.Wait()
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	if rec != nil {
		rec.add(span{Name: spanLoop}, start, start.Add(out.wall))
	}
	close(stopReader)
	out.reader = r.phase(<-readerDone)
	runtime.ReadMemStats(&out.mem[1])
	out.stats[1] = tr.rt.Stats()
	out.status = tr.coord.Status()
	fmt.Fprintf(r.o.log, "phase %-12s rounds %d  published %d  failed clients %d  accuracy %.3f  wall %.2fs\n",
		label, out.status.Round, len(out.status.Published), out.status.FailedClients, out.status.LastAccuracy, out.wall.Seconds())

	// Rounds are the operations of this phase: one that did not complete, did
	// not publish, or lost a client is a failed one.
	st := out.status
	r.res.Attempted += tr.rounds
	r.res.Failed += tr.rounds - min(st.Round, len(st.Published)-1, tr.rounds) + st.FailedClients
	if st.LastError != "" {
		r.check(errors.New("coordinator: " + st.LastError))
	}
	if tr.rounds >= accuracyFloorRounds && st.LastAccuracy < accuracyFloor {
		r.check(fmt.Errorf("final accuracy %.3f below the floor %.2f", st.LastAccuracy, accuracyFloor))
	}
	if tr.reg.StoreStatus() != serve.StoreOK {
		r.check(fmt.Errorf("model store %s after the round loop", tr.reg.StoreStatus()))
	}

	// The live model's answers, straight from its network, then the same
	// rows once more through HTTP now that the version is final.
	cur, err := tr.reg.Get(modelName)
	if err != nil {
		return nil, err
	}
	out.version = cur.Version
	if out.classes, err = cur.Backend.(*serve.DenseBackend).Net().Predict(tr.task.evalX); err != nil {
		return nil, err
	}
	want := make([][]int, len(tr.task.readerBodies))
	for i := range want {
		want[i] = out.classes[i : i+1]
	}
	final := &loadgen{
		client: tr.client, url: tr.url, bodies: tr.task.readerBodies, want: want,
		rows: 1, classes: fedClasses, tagged: rec != nil,
	}
	var n int
	r.phase(final.run(label+"-final", 1, func() (int, time.Time, bool) {
		n++
		return n - 1, time.Time{}, n <= len(final.bodies)
	}))
	return out, nil
}

func (r *run) trainEndToEnd() error {
	first := &phase{name: "set-up"}
	tr, setupS, err := repeatSetup(r, func() (*training, error) { return r.setupTraining(nil, r.rounds(1), first) })
	if err != nil {
		return err
	}
	defer tr.close()
	r.phase(first)
	out, err := r.roundLoop(tr, nil, "rounds")
	if err != nil {
		return err
	}
	if out.reader.ok() == 0 {
		return errors.New("no reader request succeeded")
	}
	tr.close()
	recovered := r.recoverCycles(tr.dir, out.version, func(net *nn.Sequential) error {
		got, err := net.Predict(tr.task.evalX)
		if err != nil {
			return err
		}
		for i, c := range got {
			if c != out.classes[i] {
				return fmt.Errorf("recovered model: held-out row %d class %d, live model said %d", i, c, out.classes[i])
			}
		}
		return nil
	})

	m := r.res.Metrics
	m.put("setup_s", setupS)
	m.put("throughput_ops", float64(tr.rounds)/out.wall.Seconds())
	lat := percentiles(out.reader.lat, 0.9, 0.99)
	m.put("latency_p90_ms", lat[0])
	m.put("latency_p99_ms", lat[1])
	m.put("cpu_ms_per_op", float64(out.cpu)/1e6/float64(tr.rounds))
	m.put("recover_ms", median(recovered))
	m.put("peak_rss_mb", peakRSSMB())
	return nil
}

// trainTraced is the traced run of train_publish: a short untraced round
// loop for reference, the same loop with every seam decorated, then the
// ladder over the trained model's shapes and the reader's first request.
func (r *run) trainTraced() error {
	o := r.o
	first := &phase{name: "set-up"}
	plain, err := r.setupTraining(nil, r.rounds(shareTracedRef+shareTracedWarm), first)
	if err != nil {
		return err
	}
	ref, err := r.roundLoop(plain, nil, "rounds-ref")
	plain.close()
	if err != nil {
		return err
	}

	rec := newRecorder()
	tr, err := r.setupTraining(rec, r.rounds(shareTracedClosed+shareTracedOpen), first)
	if err != nil {
		return err
	}
	defer tr.close()
	r.phase(first)
	stop := watchGoroutines()
	out, err := r.roundLoop(tr, rec, "rounds-traced")
	peak := stop()
	if err != nil {
		return err
	}
	if out.reader.ok() == 0 {
		return errors.New("no reader request succeeded")
	}

	m := r.res.Metrics
	m.put("bench.trace_overhead_ratio", (float64(tr.rounds)/out.wall.Seconds())/(float64(plain.rounds)/ref.wall.Seconds()))
	m.put("go.goroutines_peak", float64(peak))
	putMemStats(m, &out.mem[0], &out.mem[1], tr.rounds)
	putRuntimeStats(m, out.stats[0], out.stats[1], out.wall)
	putLoadStats(m, &phase{}, out.reader)
	if err := putScrape(m, tr.stack, o.share(shareLadderRung)); err != nil {
		return err
	}
	putStoreStats(m, tr.st.Stats())
	rec.deriveRounds()
	putSpanStats(m, rec)
	putRoundStats(m, rec, out)
	tr.close()

	in := &inputs{rows: tr.task.evalX, bodies: tr.task.readerBodies}
	if err := r.ladder(buildNet(r.sp.layers, o.seed), in); err != nil {
		return err
	}
	user, sys := cpuSplit()
	m.put("proc.cpu_user_s", user.Seconds())
	m.put("proc.cpu_sys_s", sys.Seconds())
	return rec.write(filepath.Join(o.outDir, "trace-"+r.sp.name+".json"), r.sp.name)
}

func putStoreStats(m metricSet, st store.Stats) {
	m.put("store.appends", float64(st.Appends))
	m.put("store.compactions", float64(st.Compactions))
	m.put("store.wal_bytes_end", float64(st.WALBytes))
}

// putRoundStats reports the round loop as the decorators saw it — rounds cut
// at successive checkpoints, each client's training, and what is left of a
// round once clients, appends and checkpoint are taken out — beside the
// coordinator's own counts.
func putRoundStats(m metricSet, rec *recorder, out *trained) {
	rounds := rec.named(spanRound)
	m.put("fedserve.round_ms_p50", quantile(spanMs(rounds), 0.5))
	m.put("fedserve.round_ms_p99", quantile(spanMs(rounds), 0.99))
	m.put("fedserve.coord_self_ms_p50", median(rec.selfMs(spanRound)))

	type window struct{ first, last int64 }
	fanout := make(map[int]window)
	var trainNs, samples float64
	clients := rec.named(spanTrain)
	for _, c := range clients {
		w, ok := fanout[c.Round]
		if !ok {
			w.first = c.Start
		}
		fanout[c.Round] = window{min(w.first, c.Start), max(w.last, c.End)}
		trainNs += float64(c.End - c.Start)
		samples += float64(c.Rows)
	}
	var fanoutMs []float64
	for _, w := range fanout {
		fanoutMs = append(fanoutMs, float64(w.last-w.first)/1e6)
	}
	m.put("fedserve.fanout_ms_p50", median(fanoutMs))
	m.put("fedserve.worker_busy_share", trainNs/(float64(out.wall)*float64(nproc())))
	m.put("fedserve.clients_per_round", ratio(float64(len(clients)), float64(len(fanout))))
	m.put("nn.train_ns_per_sample", ratio(trainNs, samples))

	st := out.status
	m.put("fedserve.rounds", float64(st.Round))
	m.put("fedserve.published", float64(len(st.Published)))
	m.put("fedserve.merged_updates", float64(st.MergedUpdates))
	m.put("fedserve.failed_clients", float64(st.FailedClients))
}
