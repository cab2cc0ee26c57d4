package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mobiledl/internal/metrics"
	"mobiledl/internal/nn"
	"mobiledl/internal/serve"
	"mobiledl/internal/store"
)

// Shares of -seconds each phase gets. An untraced run spends all of it on
// the workload; a traced run splits it between a short untraced reference,
// the traced phases and the ladder, and its end-to-end numbers are not
// reported.
const (
	shareWarm   = 0.1
	shareClosed = 0.9

	shareTracedWarm   = 0.03
	shareTracedRef    = 0.15 // untraced closed loop the overhead ratio is taken against
	shareTracedClosed = 0.15
	shareTracedOpen   = 0.20
	shareLadderRung   = 0.02 // per ladder rung
)

type runOpts struct {
	seed        int64
	seconds     float64
	trace       bool
	started     time.Time // when the process (or the test) began: the first set-up is timed from here
	dir         string    // scratch directory for data dirs; the caller removes it
	outDir      string    // where a traced run writes its span file
	setupReps   int       // set-ups per untraced run; setup_s is their median
	recoverReps int       // reopen-and-recover cycles; recover_ms is their median
	log         io.Writer
}

func (o *runOpts) share(f float64) time.Duration {
	return time.Duration(f * o.seconds * float64(time.Second))
}

// run is one workload run in progress: it totals the operations of every
// phase and turns any failed check into an incorrect result.
type run struct {
	sp    *spec
	o     runOpts
	res   *result
	ndirs int
}

func (r *run) phase(p *phase) *phase {
	fmt.Fprintln(r.o.log, p)
	r.res.Attempted += p.attempted
	r.res.Failed += p.failed
	return p
}

// check records a failed output check.
func (r *run) check(err error) {
	if err != nil {
		fmt.Fprintln(r.o.log, "CHECK FAILED:", err)
		r.res.Correct = false
	}
}

func (r *run) dataDir() string {
	r.ndirs++
	return filepath.Join(r.o.dir, fmt.Sprintf("%s-%d", r.sp.name, r.ndirs))
}

// runWorkload runs one workload once and returns its result; the error is
// for a benchmark that could not run, not for a program that answered wrong.
func runWorkload(sp *spec, o runOpts) (*result, error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	r := &run{sp: sp, o: o, res: &result{Correct: true, Metrics: newMetrics(defs)}}
	var err error
	switch {
	case sp.train && o.trace:
		err = r.trainTraced()
	case sp.train:
		err = r.trainEndToEnd()
	case o.trace:
		err = r.servingTraced()
	default:
		err = r.servingEndToEnd()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	return r.res, nil
}

// serving is a serving workload's stack with the inputs generated for it.
type serving struct {
	*stack
	net *nn.Sequential
	in  *inputs
	gen *loadgen
	dir string
}

// setupServing does everything a serving workload needs before its first
// measured request — generate inputs, build and publish the model, bring up
// listeners, converge the cluster — and proves it with one verified request,
// counted into first.
func (r *run) setupServing(rec *recorder, first *phase) (*serving, error) {
	sp := r.sp
	net := buildNet(sp.layers, r.o.seed)
	in, err := genInputs(r.o.seed, net, sp.layers[0], sp.nReq, sp.rows)
	if err != nil {
		return nil, err
	}
	sv := &serving{net: net, in: in, dir: r.dataDir()}
	if sv.stack, err = buildServing(sp, net, sv.dir, rec); err != nil {
		return nil, err
	}
	sv.gen = &loadgen{
		client: sv.client, url: sv.url, bodies: in.bodies, want: in.want,
		rows: sp.rows, classes: sp.layers[len(sp.layers)-1], tagged: rec != nil,
	}
	if err := firstRequest(sv.gen, first); err != nil {
		sv.close()
		return nil, err
	}
	return sv, nil
}

func firstRequest(g *loadgen, into *phase) error {
	s := &sender{g: g}
	s.send(0, time.Time{})
	into.merge(&s.out)
	if s.out.failed > 0 {
		return fmt.Errorf("first request after set-up: %w", s.out.firstErr)
	}
	return nil
}

// repeatSetup sets a stack up o.setupReps times, closing each before the next,
// and returns the last one with the median set-up time in seconds. The first
// set-up is timed from o.started, so it includes the process's own start.
func repeatSetup[T interface{ close() }](r *run, setup func() (T, error)) (last T, seconds float64, err error) {
	var took []float64
	for rep := 0; rep < r.o.setupReps; rep++ {
		if rep > 0 {
			last.close()
		}
		start := time.Now()
		if rep == 0 {
			start = r.o.started
		}
		if last, err = setup(); err != nil {
			return last, 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return last, median(took), nil
}

func (r *run) servingEndToEnd() error {
	o := r.o
	first := &phase{name: "set-up"}
	sv, setupS, err := repeatSetup(r, func() (*serving, error) { return r.setupServing(nil, first) })
	if err != nil {
		return err
	}
	defer sv.close()
	r.phase(first)
	r.phase(sv.gen.closedLoop("warm-up", nproc(), o.share(shareWarm)))
	closed := r.phase(sv.gen.closedLoop("closed", nproc(), o.share(shareClosed)))
	if closed.ok() == 0 {
		return errors.New("no request succeeded")
	}
	sv.close()
	recovered := r.recoverCycles(sv.dir, 1, func(net *nn.Sequential) error { return sameClasses(net, sv.in) })

	m := r.res.Metrics
	m.put("setup_s", setupS)
	m.put("throughput_ops", float64(closed.ok())/closed.wall.Seconds())
	lat := percentiles(closed.lat, 0.9, 0.99)
	m.put("latency_p90_ms", lat[0])
	m.put("latency_p99_ms", lat[1])
	m.put("cpu_ms_per_op", float64(closed.cpu)/1e6/float64(closed.ok()))
	m.put("recover_ms", median(recovered))
	m.put("peak_rss_mb", peakRSSMB())
	return nil
}

// sameClasses checks that net answers the generated rows as the reference
// did — applied to a network recovered from disk.
func sameClasses(net *nn.Sequential, in *inputs) error {
	got, err := net.Predict(in.rows)
	if err != nil {
		return err
	}
	rows := len(in.want[0])
	for i, c := range got {
		if want := in.want[i/rows][i%rows]; c != want {
			return fmt.Errorf("recovered model: row %d class %d, reference %d", i, c, want)
		}
	}
	return nil
}

// recoverCycles reopens the data dir the run left behind, as a restarted
// process would: store.Open, Registry.RecoverFrom, first Get. It returns
// each cycle's time in ms; the first cycle also checks the recovered version
// and its answers.
func (r *run) recoverCycles(dir string, wantVersion int, answers func(*nn.Sequential) error) []float64 {
	var ms []float64
	for i := 0; i < r.o.recoverReps; i++ {
		// A restarted process begins with an empty heap; collecting first
		// also keeps what the load phases left behind from deciding whether
		// a collection lands inside the timed cycle.
		runtime.GC()
		start := time.Now()
		st, err := store.Open(store.Options{Dir: dir, Logger: quiet})
		if err != nil {
			r.check(fmt.Errorf("recover: %w", err))
			return ms
		}
		reg := serve.NewRegistry()
		err = reg.Register(modelName, denseFactory(r.sp.layers))
		if err == nil {
			_, _, err = reg.RecoverFrom(st)
		}
		var cur *serve.Loaded
		if err == nil {
			cur, err = reg.Get(modelName)
		}
		ms = append(ms, float64(time.Since(start))/1e6)
		if err == nil && i == 0 {
			if cur.Version != wantVersion {
				err = fmt.Errorf("recovered version %d, live version was %d", cur.Version, wantVersion)
			} else {
				err = answers(cur.Backend.(*serve.DenseBackend).Net())
			}
		}
		r.check(err)
		_ = reg.Close()
		_ = st.Close()
	}
	return ms
}

// servingTraced is the traced run of a serving workload: the stack built
// twice, plain and with every seam decorated; a closed loop on the decorated
// one between two halves of a reference loop on the plain one, so that
// whatever drifts over the run (heap, caches) falls on both sides of the
// overhead ratio; an open loop on the decorated stack; then the ladder over
// the workload's model and first request.
func (r *run) servingTraced() error {
	o := r.o
	first := &phase{name: "set-up"}
	plain, err := r.setupServing(nil, first)
	if err != nil {
		return err
	}
	defer plain.close()
	rec := newRecorder()
	sv, err := r.setupServing(rec, first)
	if err != nil {
		return err
	}
	defer sv.close()
	r.phase(first)
	r.phase(plain.gen.closedLoop("warm-up", nproc(), o.share(shareTracedWarm)))
	r.phase(sv.gen.closedLoop("warm-up", nproc(), o.share(shareTracedWarm)))
	ref := r.phase(plain.gen.closedLoop("closed-ref", nproc(), o.share(shareTracedRef/2)))
	stop := watchGoroutines()
	before := sv.rt.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	closed := r.phase(sv.gen.closedLoop("closed-traced", nproc(), o.share(shareTracedClosed)))
	runtime.ReadMemStats(&ms1)
	ref2 := r.phase(plain.gen.closedLoop("closed-ref", nproc(), o.share(shareTracedRef/2)))
	plain.close()
	open := r.phase(sv.gen.openLoop("open-traced", nproc(), genSchedule(o.seed, r.sp.openRate, o.share(shareTracedOpen)), nil))
	after := sv.rt.Stats()
	peak := stop()
	if ref.ok() == 0 || ref2.ok() == 0 || closed.ok() == 0 || open.ok() == 0 {
		return errors.New("no request succeeded")
	}
	refRate := float64(ref.ok()+ref2.ok()) / (ref.wall + ref2.wall).Seconds()

	m := r.res.Metrics
	m.put("bench.trace_overhead_ratio", float64(closed.ok())/closed.wall.Seconds()/refRate)
	m.put("go.goroutines_peak", float64(peak))
	putMemStats(m, &ms0, &ms1, closed.ok())
	putRuntimeStats(m, before, after, closed.wall+ref2.wall+open.wall)
	putLoadStats(m, closed, open)
	if err := putScrape(m, sv.stack, o.share(shareLadderRung)); err != nil {
		return err
	}
	putStoreStats(m, sv.st.Stats())
	putSpanStats(m, rec)
	sv.close()

	if err := r.ladder(sv.net, sv.in); err != nil {
		return err
	}
	user, sys := cpuSplit()
	m.put("proc.cpu_user_s", user.Seconds())
	m.put("proc.cpu_sys_s", sys.Seconds())
	return rec.write(filepath.Join(o.outDir, "trace-"+r.sp.name+".json"), r.sp.name)
}

// watchGoroutines samples the goroutine count until the returned stop is
// called, which reports the peak.
func watchGoroutines() (stop func() int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	peak := runtime.NumGoroutine()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return peak
	}
}

func putMemStats(m metricSet, before, after *runtime.MemStats, ops int) {
	m.put("go.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(ops))
	m.put("go.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(ops))
	m.put("go.gc_cycles", float64(after.NumGC-before.NumGC))
	m.put("go.gc_pause_ms_total", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

// putRuntimeStats reports what the runtime counted between two Stats
// snapshots taken wall apart.
func putRuntimeStats(m metricSet, before, after serve.Stats, wall time.Duration) {
	batches := float64(after.Batches - before.Batches)
	rows := after.BatchOccupancy*float64(after.Batches) - before.BatchOccupancy*float64(before.Batches)
	// Stats records a batch's exec time once per row of the batch.
	rowExecMs := after.ExecMs.Mean*float64(after.ExecMs.Count) - before.ExecMs.Mean*float64(before.ExecMs.Count)
	m.put("serve.backend.calls", batches)
	m.put("serve.backend.rows_per_call", ratio(rows, batches))
	m.put("serve.backend.busy_share", ratio(rowExecMs*batches, rows)/(float64(wall)/1e6*float64(nproc())))
	m.put("serve.batcher.shed", float64(after.Shed-before.Shed))
	m.put("serve.batcher.expired", float64(after.Expired-before.Expired))
}

// putLoadStats reports what the load generator saw in the traced phases,
// including the per-row timings the program echoes in each reply.
func putLoadStats(m metricSet, closed, open *phase) {
	queue := append(append([]float64(nil), closed.queueMs...), open.queueMs...)
	m.put("serve.batcher.queue_ms_p50", quantile(queue, 0.5))
	m.put("serve.batcher.queue_ms_p99", quantile(queue, 0.99))
	m.put("serve.batcher.rows_per_batch", mean(append(append([]float64(nil), closed.batchRows...), open.batchRows...)))
	ok := float64(closed.ok() + open.ok())
	m.put("serve.server.req_body_bytes", float64(closed.reqBytes+open.reqBytes)/ok)
	m.put("serve.server.resp_body_bytes", float64(closed.respBytes+open.respBytes)/ok)
	m.put("loadgen.open_p50_ms", quantile(open.lat, 0.5))
	m.put("loadgen.open_p99_ms", quantile(open.lat, 0.99))
	m.put("loadgen.late_ms_p99", quantile(open.late, 0.99))
}

// putScrape fetches the stack's /metrics page as a scraper would, times the
// fetch and the parse, and reads the cluster's counters from it.
func putScrape(m metricSet, st *stack, budget time.Duration) error {
	var page string
	render, err := measure(budget, func() error {
		resp, err := st.client.Get(st.metricsURL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
		}
		page = string(b)
		return err
	})
	if err != nil {
		return err
	}
	var sc *metrics.Scrape
	parse, err := measure(budget, func() error {
		sc, err = metrics.ParseProm(page)
		return err
	})
	if err != nil {
		return err
	}
	m.put("metrics.render_ns", render.ns)
	m.put("metrics.parse_ns", parse.ns)
	m.put("metrics.families", float64(strings.Count(page, "# TYPE ")))
	m.put("cluster.forwards", sc.Sum("mobiledl_cluster_forwards_total"))
	m.put("cluster.forward_errors", sc.Sum("mobiledl_cluster_forward_errors_total"))
	return nil
}

// putSpanStats reports the decorators' view of the request path and of the
// store: span durations, and a parent's self time where a child covers part
// of it.
func putSpanStats(m metricSet, rec *recorder) {
	m.put("http.client_ms_p50", median(spanMs(rec.named(spanClient))))
	m.put("serve.server.handler_ms_p50", median(spanMs(rec.named(spanServe))))
	m.put("cluster.roundtrip_ms_p50", median(spanMs(rec.named(spanRoundTrip))))
	m.put("cluster.handler_self_ms_p50", median(rec.selfMs(spanOrigin)))
	appends := rec.named(spanAppend)
	m.put("store.append_publish_ms_p50", quantile(spanMs(appends), 0.5))
	m.put("store.append_publish_ms_p99", quantile(spanMs(appends), 0.99))
	m.put("store.append_ms_max", maxOf(spanMs(appends)))
	var bytes float64
	for _, s := range appends {
		bytes += float64(s.Bytes)
	}
	m.put("store.record_bytes_mean", ratio(bytes, float64(len(appends))))
}
