package trace

import "time"

// BatchRec is one raw span record in a BatchLog: name, wall-clock window,
// structural parent (index into the log, -1 for top level), and attributes.
type BatchRec struct {
	Name   string
	Parent int
	Start  time.Time
	Dur    time.Duration
	Err    string
	Attrs  []Attr
}

// BatchLog collects raw span records for work executed once on behalf of
// many traces — a coalesced tensor batch run by a single batcher worker.
// The worker records into the log (single-goroutine, Begin/End nesting);
// after execution the log is read-only and every participating request's
// submitter attaches it to its own trace with Span.AttachLog. That split is
// what lets one backend execution produce child spans in N traces without
// any cross-goroutine span writes.
//
// A nil *BatchLog is a valid receiver: Begin returns -1 and End ignores it,
// so backends instrument unconditionally and untraced batches pay only a
// nil check.
type BatchLog struct {
	recs []BatchRec
	open []int // stack of indices with an outstanding Begin
}

// NewBatchLog returns an empty log.
func NewBatchLog() *BatchLog { return &BatchLog{} }

// Begin opens a record nested under the innermost still-open record and
// returns its index (-1 on a nil log).
func (l *BatchLog) Begin(name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	l.recs = append(l.recs, BatchRec{Name: name, Parent: parent, Start: time.Now()})
	idx := len(l.recs) - 1
	l.open = append(l.open, idx)
	return idx
}

// End closes the record at idx, stamping its duration and attributes.
func (l *BatchLog) End(idx int, attrs ...Attr) {
	if l == nil || idx < 0 || idx >= len(l.recs) {
		return
	}
	rec := &l.recs[idx]
	rec.Dur = time.Since(rec.Start)
	if len(attrs) > 0 {
		rec.Attrs = append(rec.Attrs, attrs...)
	}
	if n := len(l.open); n > 0 && l.open[n-1] == idx {
		l.open = l.open[:n-1]
	}
}

// EndErr is End recording a failure (nil err behaves like End).
func (l *BatchLog) EndErr(idx int, err error, attrs ...Attr) {
	if l != nil && idx >= 0 && idx < len(l.recs) && err != nil {
		l.recs[idx].Err = err.Error()
	}
	l.End(idx, attrs...)
}
