// Package leakcheck asserts that a test leaves no goroutines behind. The
// serving stack leans on background goroutines with explicit shutdown
// contracts — batcher flush loops, coordinator training loops, cluster
// gossip tickers — and a leaked one is exactly the kind of bug the race
// detector misses: everything still passes, the process just accretes
// stuck goroutines. Check snapshots the live goroutine set and registers a
// cleanup that fails the test if new goroutines survive shutdown.
//
// Zero dependencies: the snapshot is runtime.Stack(buf, true) parsed by
// hand, the same source `go test -timeout` dumps come from.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// ignoredSubstrings marks goroutines outside the test's control: runtime
// housekeeping, the testing framework itself, and net/http's keep-alive
// pool, whose connection goroutines linger by design after a client
// request finishes.
var ignoredSubstrings = []string{
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport).dialConn",
	"net/http/httptest.(*Server).goServe",
	"net/http.(*Server).Serve",
	"os/signal.signal_recv",
	"runtime.ReadMemStats",
	"testing.(*T).Run",
	"testing.runTests",
	"testing.(*M).",
}

// Check snapshots the current goroutines and, at test cleanup, verifies the
// test did not add any. Detection retries with backoff for about two
// seconds so goroutines that are mid-exit (closed channel received, return
// in progress) do not count as leaks.
//
//nolint:deadexport // test seam: cluster, fedserve and serve tests
func Check(t testing.TB) {
	t.Helper()
	before := snapshot()
	t.Cleanup(func() {
		leaked := settle(before)
		if len(leaked) == 0 {
			return
		}
		t.Errorf("leakcheck: %d goroutine(s) leaked by this test:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}

// settle polls until no new goroutines remain or the retry budget (~2s)
// runs out, returning the stacks still unaccounted for.
func settle(before map[string]bool) []string {
	delay := 1 * time.Millisecond
	var leaked []string
	for i := 0; i < 20; i++ {
		leaked = diff(before)
		if len(leaked) == 0 {
			return nil
		}
		time.Sleep(delay)
		if delay < 256*time.Millisecond {
			delay *= 2
		}
	}
	return leaked
}

// snapshot captures the live goroutine set keyed by goroutine ID
// ("goroutine 42"), value true; the caller only needs membership.
func snapshot() map[string]bool {
	out := make(map[string]bool)
	for _, rec := range records() {
		out[goroutineID(rec)] = true
	}
	return out
}

// diff returns the stack records of goroutines live now but not in before
// and not on the ignore list.
func diff(before map[string]bool) []string {
	var leaked []string
	for _, rec := range records() {
		if before[goroutineID(rec)] || ignorable(rec) {
			continue
		}
		leaked = append(leaked, rec)
	}
	return leaked
}

// records returns one stack record per live goroutine, including the
// caller's own (the caller is in `before` anyway, so it nets out).
func records() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var recs []string
	for _, rec := range strings.Split(string(buf), "\n\n") {
		rec = strings.TrimSpace(rec)
		if rec != "" {
			recs = append(recs, rec)
		}
	}
	return recs
}

// goroutineID extracts the "goroutine N" prefix of a record; IDs are never
// reused within a process, so membership in a snapshot identifies a
// goroutine across time.
func goroutineID(rec string) string {
	header, _, _ := strings.Cut(rec, " [")
	return header
}

// ignorable reports whether the record belongs to runtime/stdlib machinery
// the test cannot be expected to shut down.
func ignorable(rec string) bool {
	for _, s := range ignoredSubstrings {
		if strings.Contains(rec, s) {
			return true
		}
	}
	return false
}
