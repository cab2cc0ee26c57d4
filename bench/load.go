package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadgen sends one workload's pre-encoded requests to a stack and checks
// every answer. It runs inside the benchmark process, on at most nproc
// keep-alive connections.
type loadgen struct {
	client  *http.Client
	url     string
	bodies  [][]byte
	want    [][]int // nil: the served model changes, so only the class range is checked
	rows    int     // rows per request
	classes int
	tagged  bool // traced run: stamp request ids for the decorators, keep the replies' own timings
	nextID  atomic.Uint64
}

// answer is the part of a /v1/predict reply the benchmark reads.
type answer struct {
	Rows []struct {
		Class        int     `json:"class"`
		ModelVersion int     `json:"model_version"`
		BatchSize    int     `json:"batch_size"`
		QueueMs      float64 `json:"queue_ms"`
	} `json:"rows"`
}

// phase is what one load phase observed.
type phase struct {
	name      string
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration // process user+sys over the phase
	lat       []float64     // ms, successes only; from due time in an open loop
	late      []float64     // ms the generator started behind schedule (open loop)
	reqBytes  int64
	respBytes int64
	// the program's own per-row report, echoed in each reply
	queueMs   []float64
	batchRows []float64
}

func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	p.reqBytes += o.reqBytes
	p.respBytes += o.respBytes
	p.queueMs = append(p.queueMs, o.queueMs...)
	p.batchRows = append(p.batchRows, o.batchRows...)
}

func (p *phase) ok() int { return p.attempted - p.failed }

func (p *phase) String() string {
	s := fmt.Sprintf("phase %-12s attempted %7d  ok %7d  failed %d  wall %.2fs", p.name, p.attempted, p.ok(), p.failed, p.wall.Seconds())
	if len(p.lat) > 0 {
		q := percentiles(p.lat, 0.5, 0.9, 0.99, 0.999, 1)
		s += fmt.Sprintf("  latency ms mean %.4f p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f (%d samples)",
			mean(p.lat), q[0], q[1], q[2], q[3], q[4], len(p.lat))
	}
	if p.firstErr != nil {
		s += "  first error: " + p.firstErr.Error()
	}
	return s
}

// sender is one connection's worth of state: it sends sequentially, so the
// model version it sees may never go backwards.
type sender struct {
	g       *loadgen
	buf     bytes.Buffer
	version int
	out     phase
}

// send posts request i and verifies the reply. due is when the request
// should have left (the zero time in a closed loop: latency then runs from
// the actual send).
func (s *sender) send(i int, due time.Time) {
	g := s.g
	body := g.bodies[i%len(g.bodies)]
	start := time.Now()
	if due.IsZero() {
		due = start
	} else {
		s.out.late = append(s.out.late, float64(start.Sub(due))/1e6)
	}
	s.out.attempted++
	err := s.exchange(i, body)
	if err != nil {
		s.out.failed++
		if s.out.firstErr == nil {
			s.out.firstErr = fmt.Errorf("request %d: %w", i, err)
		}
		return
	}
	s.out.lat = append(s.out.lat, float64(time.Since(due))/1e6)
	s.out.reqBytes += int64(len(body))
	s.out.respBytes += int64(s.buf.Len())
}

func (s *sender) exchange(i int, body []byte) error {
	g := s.g
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if g.tagged {
		setReqID(req.Header, g.nextID.Add(1))
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	s.buf.Reset()
	_, err = io.Copy(&s.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.120s", resp.StatusCode, s.buf.Bytes())
	}
	var a answer
	if err := json.Unmarshal(s.buf.Bytes(), &a); err != nil {
		return fmt.Errorf("bad reply: %w", err)
	}
	if len(a.Rows) != g.rows {
		return fmt.Errorf("%d rows answered, %d sent", len(a.Rows), g.rows)
	}
	for r, row := range a.Rows {
		switch {
		case g.want != nil && row.Class != g.want[i%len(g.bodies)][r]:
			return fmt.Errorf("row %d: class %d, reference %d", r, row.Class, g.want[i%len(g.bodies)][r])
		case row.Class < 0 || row.Class >= g.classes:
			return fmt.Errorf("row %d: class %d out of range", r, row.Class)
		case row.ModelVersion < s.version:
			return fmt.Errorf("model_version went backwards: %d after %d", row.ModelVersion, s.version)
		}
		s.version = row.ModelVersion
		if g.tagged {
			s.out.queueMs = append(s.out.queueMs, row.QueueMs)
			s.out.batchRows = append(s.out.batchRows, float64(row.BatchSize))
		}
	}
	return nil
}

// run drives conns senders, each pulling the next request index until next
// reports the phase is over, and returns what they observed together.
func (g *loadgen) run(name string, conns int, next func() (i int, due time.Time, ok bool)) *phase {
	senders := make([]*sender, conns)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range senders {
		s := &sender{g: g}
		senders[c] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, due, ok := next()
				if !ok {
					return
				}
				if !due.IsZero() {
					waitUntil(due)
				}
				s.send(i, due)
			}
		}()
	}
	wg.Wait()
	total := &phase{name: name, wall: time.Since(start), cpu: cpuTime() - cpu0}
	for _, s := range senders {
		total.merge(&s.out)
	}
	return total
}

// sleepSlack is how long before a due time the sleeping stops and yielding
// in a loop takes over; the nanosleep below overshoots by 60-80 us.
const sleepSlack = 90 * time.Microsecond

// waitUntil blocks until due. time.Sleep is no use for this: an idle Go
// runtime waits in epoll with millisecond timeouts, so any sleep takes at
// least a millisecond, which is ten request times on predict_single. The
// nanosleep system call is exact to its overshoot and burns no CPU.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due) - sleepSlack
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // cut short by a signal: go round again
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// closedLoop keeps conns requests in flight for d: each connection sends its
// next request when the previous one is answered.
func (g *loadgen) closedLoop(name string, conns int, d time.Duration) *phase {
	var n atomic.Int64
	end := time.Now().Add(d)
	return g.run(name, conns, func() (int, time.Time, bool) {
		if time.Now().After(end) {
			return 0, time.Time{}, false
		}
		return int(n.Add(1) - 1), time.Time{}, true
	})
}

// openLoop sends on the schedule whatever the program's speed: connections
// take requests in due order and wait for each one's due time, so a stall
// delays the requests behind it and that delay counts in their latency. A
// non-nil until ends the phase early, when it is closed.
func (g *loadgen) openLoop(name string, conns int, schedule []time.Duration, until <-chan struct{}) *phase {
	var n atomic.Int64
	start := time.Now()
	return g.run(name, conns, func() (int, time.Time, bool) {
		i := int(n.Add(1) - 1)
		if i >= len(schedule) {
			return 0, time.Time{}, false
		}
		select {
		case <-until:
			return 0, time.Time{}, false
		default:
		}
		return i, start.Add(schedule[i]), true
	})
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	u, s := cpuSplit()
	return u + s
}

func cpuSplit() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
