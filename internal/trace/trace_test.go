package trace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	id := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	parent := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(id, parent, sampled)
		if len(h) != 55 {
			t.Fatalf("traceparent %q is %d chars, want 55", h, len(h))
		}
		gid, gparent, gsampled, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("round-trip parse of %q failed", h)
		}
		if gid != id || gparent != parent || gsampled != sampled {
			t.Fatalf("round trip mangled %q: got id=%s parent=%s sampled=%v", h, gid, gparent, gsampled)
		}
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	bad := map[string]string{
		"empty":          "",
		"short":          valid[:54],
		"version ff":     "ff" + valid[2:],
		"zero trace id":  "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero parent id": "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"bad dashes":     strings.ReplaceAll(valid, "-", "_"),
		"non-hex id":     "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",
		"uppercase id":   "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"uppercase span": "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",
		"uppercase ver":  "0A" + valid[2:],
		"v00 trailing":   valid + "x",
		"v00 extra":      valid + "-garbage",
		"v01 no dash":    "01" + valid[2:] + "x",
	}
	if _, _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatal("control value rejected")
	}
	for name, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, h)
		}
	}
	// A future version may append fields after a dash.
	if _, _, _, ok := ParseTraceparent("01" + valid[2:] + "-future"); !ok {
		t.Error("version 01 with a trailing field rejected")
	}
	// Unsampled flag parses fine but reports sampled=false.
	if _, _, sampled, ok := ParseTraceparent(valid[:53] + "00"); !ok || sampled {
		t.Fatalf("flags 00: ok=%v sampled=%v, want ok && !sampled", ok, sampled)
	}
}

func TestSpanTreeSnapshot(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("req", Str("model", "m"))
	if !root.Active() {
		t.Fatal("root span inactive")
	}
	a := root.Child("a", Num("k", 3))
	b := a.Child("b")
	b.End()
	a.EndErr(errors.New("boom"))
	root.End()

	td := tr.Get(root.TraceID())
	if td == nil {
		t.Fatal("finished trace not retained")
	}
	if td.Name != "req" || len(td.Spans) != 3 {
		t.Fatalf("trace = %+v, want name req with 3 spans", td)
	}
	if !td.Error {
		t.Fatal("errored child did not mark the trace as an error trace")
	}
	spans := td.Spans
	if spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 1 {
		t.Fatalf("parent chain %d/%d/%d, want -1/0/1", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	if spans[0].Attrs["model"] != "m" || spans[1].Attrs["k"] != 3.0 {
		t.Fatalf("attrs lost: %+v", spans)
	}
	if spans[1].Error != "boom" {
		t.Fatalf("span error = %q, want boom", spans[1].Error)
	}
	st := tr.Stats()
	if st.Started != 1 || st.Finished != 1 {
		t.Fatalf("stats %+v, want 1/1", st)
	}
}

func TestSlabOverflowDropsAndCounts(t *testing.T) {
	tr := New(Config{MaxSpans: 4})
	root := tr.Start("req")
	for i := 0; i < 10; i++ {
		c := root.Child("c")
		c.End()
	}
	root.End()
	td := tr.Get(root.TraceID())
	if td == nil {
		t.Fatal("trace not retained")
	}
	if len(td.Spans) != 4 {
		t.Fatalf("kept %d spans, want slab cap 4", len(td.Spans))
	}
	if td.DroppedSpans != 7 {
		t.Fatalf("DroppedSpans = %d, want 7 (11 allocations into a 4-slab)", td.DroppedSpans)
	}
}

func TestSlabPoolRecyclesClean(t *testing.T) {
	tr := New(Config{MaxSpans: 16})
	first := tr.Start("first")
	for i := 0; i < 10; i++ {
		first.Child("junk").End()
	}
	first.End()

	// The recycled slab still holds the first trace's entries; the second
	// trace's snapshot must only see its own.
	second := tr.Start("second")
	second.Child("only").End()
	second.End()
	td := tr.Get(second.TraceID())
	if td == nil {
		t.Fatal("second trace not retained")
	}
	if len(td.Spans) != 2 || td.Spans[1].Name != "only" {
		t.Fatalf("recycled slab leaked spans: %+v", td.Spans)
	}
	// Spans created after the root ended are dropped, not written into the
	// (possibly re-pooled) slab.
	if got := second.Child("late"); got.Active() {
		t.Fatal("Child on a finished trace returned a live span")
	}
}

func TestConcurrentChildrenRaceFree(t *testing.T) {
	tr := New(Config{MaxSpans: 2048})
	root := tr.Start("req")
	const workers, each = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c := root.Child("c", Num("w", float64(w)))
				c.End(Num("i", float64(i)))
			}
		}(w)
	}
	wg.Wait()
	root.End()
	td := tr.Get(root.TraceID())
	if td == nil {
		t.Fatal("trace not retained")
	}
	if want := 1 + workers*each; len(td.Spans) != want {
		t.Fatalf("got %d spans, want %d", len(td.Spans), want)
	}
	for _, sp := range td.Spans[1:] {
		if sp.Parent != 0 {
			t.Fatalf("span %d parented to %d, want root", sp.ID, sp.Parent)
		}
	}
}

func TestStoreTailRetentionUnderChurn(t *testing.T) {
	st := newStore(4, 2, 2)
	mk := func(i int, durMs float64, isErr bool) *TraceData {
		return &TraceData{
			TraceID:    fmt.Sprintf("%032d", i),
			Name:       "t",
			Start:      time.Unix(0, int64(i)),
			DurationMs: durMs,
			Error:      isErr,
		}
	}
	// Two early error traces, then heavy churn of fast traces with two slow
	// outliers in the middle.
	st.offer(mk(0, 1, true))
	st.offer(mk(1, 1, true))
	st.offer(mk(2, 500, false))
	st.offer(mk(3, 900, false))
	for i := 4; i < 40; i++ {
		st.offer(mk(i, 1, false))
	}

	// The error traces survive churn in the error ring.
	for _, id := range []int{0, 1} {
		if st.get(fmt.Sprintf("%032d", id)) == nil {
			t.Errorf("error trace %d evicted", id)
		}
	}
	// The slowest traces survive churn in the slow set.
	for _, id := range []int{2, 3} {
		if st.get(fmt.Sprintf("%032d", id)) == nil {
			t.Errorf("slow trace %d evicted", id)
		}
	}
	// A fast mid-churn trace aged out of the 4-deep recent ring.
	if st.get(fmt.Sprintf("%032d", 10)) != nil {
		t.Error("fast trace 10 unexpectedly retained")
	}
	// A faster new trace must not displace a slower retained one.
	st.offer(mk(99, 2, false))
	if st.get(fmt.Sprintf("%032d", 2)) == nil {
		t.Error("slow trace displaced by a faster one")
	}
	// Listing is deduplicated and newest-first.
	list := st.list()
	seen := map[string]bool{}
	for _, s := range list {
		if seen[s.TraceID] {
			t.Fatalf("trace %s listed twice", s.TraceID)
		}
		seen[s.TraceID] = true
	}
	for i := 1; i < len(list); i++ {
		if list[i].Start.After(list[i-1].Start) {
			t.Fatal("listing not newest-first")
		}
	}
}

func TestNilTracerAndZeroSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Sample() {
		t.Fatal("nil tracer sampled")
	}
	sp := tr.Start("x")
	if sp.Active() || sp.TraceID() != "" || sp.Traceparent() != "" {
		t.Fatalf("nil tracer returned a live span: %+v", sp)
	}
	// Every method must be callable on the zero span.
	c := sp.Child("c")
	c.Annotate(Str("k", "v"))
	c.End()
	sp.EndErr(errors.New("x"))
	sp.AttachLog(NewBatchLog())
	if got := tr.Recent(); got != nil {
		t.Fatalf("nil tracer retained traces: %v", got)
	}
	if tr.Get("deadbeef") != nil {
		t.Fatal("nil tracer returned a trace")
	}
	// Sample <= 0 disables head sampling on a live tracer.
	if New(Config{Sample: -1}).Sample() {
		t.Fatal("negative sample rate sampled")
	}
}

func TestBatchLogNestingAndAttach(t *testing.T) {
	var nilLog *BatchLog
	if idx := nilLog.Begin("x"); idx != -1 {
		t.Fatalf("nil log Begin = %d, want -1", idx)
	}
	nilLog.End(0)
	nilLog.EndErr(0, errors.New("x"))

	l := NewBatchLog()
	exec := l.Begin("exec")
	dev := l.Begin("device")
	l.End(dev, Num("rows", 4))
	cloud := l.Begin("cloud")
	l.EndErr(cloud, errors.New("cloud down"))
	l.End(exec)

	recs := l.Recs()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	if recs[0].Parent != -1 || recs[1].Parent != 0 || recs[2].Parent != 0 {
		t.Fatalf("nesting %d/%d/%d, want -1/0/0", recs[0].Parent, recs[1].Parent, recs[2].Parent)
	}
	if recs[2].Err != "cloud down" {
		t.Fatalf("error lost: %+v", recs[2])
	}

	// Materialize into a trace: structure preserved under the attach point.
	tr := New(Config{})
	root := tr.Start("req")
	batch := root.Child("batch")
	batch.AttachLog(l)
	batch.End()
	root.End()
	td := tr.Get(root.TraceID())
	if td == nil {
		t.Fatal("trace not retained")
	}
	// root(0), batch(1), exec(2), device(3), cloud(4)
	if len(td.Spans) != 5 {
		t.Fatalf("%d spans, want 5: %+v", len(td.Spans), td.Spans)
	}
	if td.Spans[2].Parent != 1 || td.Spans[3].Parent != 2 || td.Spans[4].Parent != 2 {
		t.Fatalf("attached structure wrong: %+v", td.Spans)
	}
	if !td.Error || td.Spans[4].Error != "cloud down" {
		t.Fatal("attached error record did not mark the trace")
	}
	if td.Spans[3].Attrs["rows"] != 4.0 {
		t.Fatalf("attached attrs lost: %+v", td.Spans[3])
	}
}

func TestStartRemoteJoinsCallerTrace(t *testing.T) {
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	id, parent, sampled, ok := ParseTraceparent(h)
	if !ok || !sampled {
		t.Fatal("control header did not parse")
	}
	tr := New(Config{})
	sp := tr.StartRemote("req", id, parent)
	if sp.TraceID() != id.String() {
		t.Fatalf("trace id %s, want caller's %s", sp.TraceID(), id)
	}
	// The echoed traceparent names the same trace (new span id, sampled).
	eid, _, esampled, eok := ParseTraceparent(sp.Traceparent())
	if !eok || eid != id || !esampled {
		t.Fatalf("echoed traceparent %q does not continue the trace", sp.Traceparent())
	}
	sp.End()
	td := tr.Get(id.String())
	if td == nil {
		t.Fatal("remote-rooted trace not retained")
	}
	if td.RemoteParent != parent.String() {
		t.Fatalf("RemoteParent = %q, want %s", td.RemoteParent, parent)
	}
}

func TestChildAtRecordsExplicitWindow(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("req")
	start := time.Now().Add(-10 * time.Millisecond)
	root.ChildAt("q", start, 4*time.Millisecond, Num("n", 1))
	root.End()
	td := tr.Get(root.TraceID())
	if td == nil || len(td.Spans) != 2 {
		t.Fatalf("trace wrong: %+v", td)
	}
	q := td.Spans[1]
	if q.DurationMs < 3.9 || q.DurationMs > 4.1 {
		t.Fatalf("ChildAt duration %.3fms, want ~4ms", q.DurationMs)
	}
	if q.OffsetMs > 0 {
		t.Fatalf("ChildAt offset %.3fms, want negative (started before root)", q.OffsetMs)
	}
}

// FuzzParseTraceparent: the parser never panics, and whatever it accepts is
// lowercase in its version-00 prefix, exactly 55 bytes when the version is
// 00, and survives a FormatTraceparent round trip unchanged.
func FuzzParseTraceparent(f *testing.F) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Add(valid)
	f.Add(valid[:53] + "00")
	f.Add(strings.ToUpper(valid))
	f.Add(valid + "x")
	f.Add(valid + "-garbage")
	f.Add("01" + valid[2:] + "-future")
	f.Add("01" + valid[2:] + "x")
	f.Fuzz(func(t *testing.T, h string) {
		id, parent, sampled, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if strings.ToLower(h[:55]) != h[:55] {
			t.Fatalf("accepted %q with uppercase in the first 55 bytes", h)
		}
		if h[:2] == "00" && len(h) != 55 {
			t.Fatalf("accepted version-00 %q of %d bytes, want 55", h, len(h))
		}
		gid, gparent, gsampled, gok := ParseTraceparent(FormatTraceparent(id, parent, sampled))
		if !gok || gid != id || gparent != parent || gsampled != sampled {
			t.Fatalf("%q: re-parse after FormatTraceparent gave id=%s parent=%s sampled=%v ok=%v, want id=%s parent=%s sampled=%v",
				h, gid, gparent, gsampled, gok, id, parent, sampled)
		}
	})
}
