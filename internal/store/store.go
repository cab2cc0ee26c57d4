package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mobiledl/internal/metrics"
	"mobiledl/internal/serve"
	"mobiledl/internal/trace"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrBroken is returned once the store has witnessed a torn write (or failed
// to undo a bad one): the on-disk tail is no longer trustworthy, so further
// appends are refused until a restart replays and truncates it. Serving is
// unaffected — the registry degrades to RAM-only publishes.
var ErrBroken = errors.New("store: persistence broken by a torn write; restart recovers")

// File names inside the data dir. The WAL carries appends since the last
// compaction; the snapshot is the compacted prefix, replaced atomically
// (tmp + rename) so a crash mid-compaction leaves the previous snapshot
// intact.
const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.bin"
	snapshotTmp  = "snapshot.tmp"
)

// Options configures a Store. The zero value of every field takes the
// documented default.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// NoSync skips the fsync after each append — only for tests that don't
	// measure durability; a production store must sync.
	NoSync bool
	// CompactEvery triggers a snapshot compaction after this many appends
	// (default 64; negative disables compaction).
	CompactEvery int
	// Failpoints, when set, injects faults at the I/O seam (tests only).
	Failpoints *Failpoints
	// Tracer, when set, samples appends and the boot recovery into traces
	// (store.append / store.recover spans). Nil disables.
	Tracer *trace.Tracer
	// Logger receives structured store logs; nil means slog.Default().
	Logger *slog.Logger
}

func (o *Options) fill() {
	if o.CompactEvery == 0 {
		o.CompactEvery = 64
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
}

// checkpointEntry is the latest checkpoint retained under one key.
type checkpointEntry struct {
	payload []byte
	at      time.Time
}

// Stats is a point-in-time snapshot of the store's counters (the /metrics
// payload and test assertions).
type Stats struct {
	Appends             uint64
	AppendErrors        uint64
	Compactions         uint64
	CompactionErrors    uint64
	WALBytes            int64
	RetainedPublishes   int
	RetainedCheckpoints int
	// RecoveredRecords and TruncatedBytes describe the boot replay: how many
	// intact records were recovered and how many damaged tail bytes were cut.
	RecoveredRecords int
	TruncatedBytes   int64
	Broken           bool
}

// Store is the crash-safe persistence layer behind the serving registry and
// the fedserve coordinator: an append-only, CRC-framed, fsync'd write-ahead
// log plus periodically compacted snapshots in one data directory. It
// implements serve.Store (publish records, online backup) and the fedserve
// CheckpointStore seam (latest-wins round checkpoints). A record is durable
// exactly when its append returned nil: failed appends are undone (the WAL
// truncated back) so replay never resurrects a half-written record, and torn
// writes that cannot be undone brick appends (ErrBroken) rather than let
// later frames land beyond damage that replay will stop at.
type Store struct {
	opts   Options
	dir    string
	logger *slog.Logger

	mu           sync.Mutex
	wal          *os.File
	walSize      int64
	sinceCompact int
	broken       bool
	closed       bool

	pubs map[string][]serve.PublishRecord // per model, ascending version
	cks  map[string]checkpointEntry

	stats Stats
}

var _ serve.Store = (*Store)(nil)

// Open opens (or creates) the store in dir, replaying the snapshot and WAL
// into memory. Replay is damage-tolerant by construction: it walks intact
// frames and truncates the WAL at the first torn or corrupted one, so a
// crash mid-append costs at most the record being written — never the log.
func Open(opts Options) (*Store, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{
		opts:   opts,
		dir:    opts.Dir,
		logger: opts.Logger,
		pubs:   make(map[string][]serve.PublishRecord),
		cks:    make(map[string]checkpointEntry),
	}

	var sp trace.Span
	if opts.Tracer.Sample() {
		sp = opts.Tracer.Start("store.recover", trace.Str("dir", opts.Dir))
	}

	// Snapshot first: the compacted prefix of history. It was written via
	// tmp+rename so it is normally whole; a damaged one (torn by a dying
	// disk, not by our crash protocol) still yields its intact prefix.
	snapRecs := 0
	if b, err := os.ReadFile(filepath.Join(opts.Dir, snapshotFile)); err == nil {
		ss := sp.Child("store.snapshot")
		res := replay(b)
		if res.torn {
			s.logger.Warn("store snapshot damaged; using intact prefix",
				"dir", opts.Dir, "records", len(res.recs), "why", res.why)
		}
		for _, rec := range res.recs {
			s.applyLocked(rec)
		}
		snapRecs = len(res.recs)
		ss.End(trace.Num("records", float64(snapRecs)))
	} else if !errors.Is(err, fs.ErrNotExist) {
		sp.EndErr(err)
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}

	// Then the WAL: appends since the last compaction. The torn tail, if
	// any, is truncated away so the append offset restarts on intact bytes.
	walPath := filepath.Join(opts.Dir, walFile)
	b, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		sp.EndErr(err)
		return nil, fmt.Errorf("store: read wal: %w", err)
	}
	ws := sp.Child("store.wal")
	res := replay(b)
	for _, rec := range res.recs {
		s.applyLocked(rec)
	}
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		ws.EndErr(err)
		sp.EndErr(err)
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	if cut := int64(len(b)) - res.valid; cut > 0 {
		if err := f.Truncate(res.valid); err != nil {
			f.Close()
			ws.EndErr(err)
			sp.EndErr(err)
			return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
		if !opts.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				ws.EndErr(err)
				sp.EndErr(err)
				return nil, fmt.Errorf("store: sync truncated wal: %w", err)
			}
		}
		s.stats.TruncatedBytes = cut
		s.logger.Warn("store truncated torn WAL tail",
			"dir", opts.Dir, "bytes", cut, "why", res.why)
	}
	ws.End(trace.Num("records", float64(len(res.recs))),
		trace.Num("truncated_bytes", float64(s.stats.TruncatedBytes)))

	s.wal = f
	s.walSize = res.valid
	s.stats.WALBytes = res.valid
	s.stats.RecoveredRecords = snapRecs + len(res.recs)
	sp.End(trace.Num("records", float64(s.stats.RecoveredRecords)),
		trace.Num("models", float64(len(s.pubs))),
		trace.Num("checkpoints", float64(len(s.cks))))
	return s, nil
}

// AppendPublish implements serve.Store: one durable frame per published
// version, fsync'd before returning.
func (s *Store) AppendPublish(rec serve.PublishRecord) error {
	if rec.Model == "" || rec.Version <= 0 {
		return fmt.Errorf("store: publish record needs a model and positive version (got %q v%d)", rec.Model, rec.Version)
	}
	if rec.At.IsZero() {
		rec.At = time.Now()
	}
	return s.append(record{
		Class: classPublish, Key: rec.Model, Version: rec.Version,
		Kind: rec.Kind, Meta: rec.Meta, Payload: rec.Weights, At: rec.At,
	})
}

// Publishes implements serve.Store: the retained publish records ordered by
// model then ascending version — the registry's boot replay stream.
func (s *Store) Publishes() []serve.PublishRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	models := make([]string, 0, len(s.pubs))
	for m := range s.pubs {
		models = append(models, m)
	}
	sort.Strings(models)
	var out []serve.PublishRecord
	for _, m := range models {
		out = append(out, s.pubs[m]...)
	}
	return out
}

// SaveCheckpoint durably records latest-wins state under a key — the
// fedserve coordinator's between-rounds checkpoint seam.
func (s *Store) SaveCheckpoint(key string, payload []byte) error {
	if key == "" {
		return errors.New("store: checkpoint needs a key")
	}
	return s.append(record{Class: classCheckpoint, Key: key, Payload: payload, At: time.Now()})
}

// LoadCheckpoint returns the latest checkpoint under key, and whether one
// exists.
func (s *Store) LoadCheckpoint(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	ck, ok := s.cks[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), ck.payload...), true, nil
}

// append frames, writes, syncs, and applies one record. Durability contract:
// a nil return means the record survives a crash; any error means it does
// not (the write was undone, or never happened).
func (s *Store) append(rec record) error {
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	fr := frame(payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.broken:
		s.stats.AppendErrors++
		return ErrBroken
	}
	var sp trace.Span
	if s.opts.Tracer.Sample() {
		sp = s.opts.Tracer.Start("store.append",
			trace.Str("key", rec.Key), trace.Num("bytes", float64(len(fr))))
	}
	err = s.writeDurable(fr)
	sp.EndErr(err)
	if err != nil {
		s.stats.AppendErrors++
		return err
	}
	s.applyLocked(rec)
	s.stats.Appends++
	s.sinceCompact++
	s.maybeCompactLocked()
	return nil
}

// writeDurable lands one frame at the WAL tail: consult failpoints, write,
// sync, advance the offset. A failed write or sync is undone by truncating
// back to the pre-append offset, so the on-disk log only ever ends at a
// record boundary; if even the undo fails the store bricks (ErrBroken on
// every later append) rather than write past damage replay would cut at.
func (s *Store) writeDurable(fr []byte) error {
	off := s.walSize
	switch s.opts.Failpoints.onWrite() {
	case faultFull:
		return errInjectedFull
	case faultWrite:
		return errInjectedWrite
	case faultTorn:
		// A crash mid-write: a prefix lands on disk and the process (from
		// the store's point of view) is gone. No undo runs — exactly the
		// state boot recovery must truncate.
		_, _ = s.wal.WriteAt(fr[:len(fr)/2], off)
		s.broken = true
		return errInjectedTorn
	case faultCorrupt:
		cf := append([]byte(nil), fr...)
		corruptChecksum(cf)
		fr = cf
	}
	if _, err := s.wal.WriteAt(fr, off); err != nil {
		s.undoLocked(off)
		return fmt.Errorf("store: wal write: %w", err)
	}
	if err := s.syncWAL(); err != nil {
		s.undoLocked(off)
		return fmt.Errorf("store: wal sync: %w", err)
	}
	s.walSize = off + int64(len(fr))
	s.stats.WALBytes = s.walSize
	return nil
}

func (s *Store) syncWAL() error {
	if s.opts.Failpoints.onFsync() {
		return errInjectedFsync
	}
	if s.opts.NoSync {
		return nil
	}
	return s.wal.Sync()
}

func (s *Store) undoLocked(off int64) {
	if err := s.wal.Truncate(off); err != nil {
		s.broken = true
		s.stats.Broken = true
		s.logger.Error("store cannot undo a failed append; refusing further writes until restart",
			"dir", s.dir, "err", err)
	}
}

// applyLocked folds one replayed or appended record into the retained state.
// Replay is idempotent: a publish re-applies by (model, version) and a
// checkpoint is latest-wins, so records present in both the snapshot and the
// WAL (a crash between rename and WAL truncation during compaction) are
// harmless.
func (s *Store) applyLocked(rec record) {
	switch rec.Class {
	case classPublish:
		pr := serve.PublishRecord{
			Model: rec.Key, Version: rec.Version, Kind: rec.Kind,
			Meta: rec.Meta, Weights: rec.Payload, At: rec.At,
		}
		list := s.pubs[rec.Key]
		i := sort.Search(len(list), func(i int) bool { return list[i].Version >= pr.Version })
		switch {
		case i < len(list) && list[i].Version == pr.Version:
			list[i] = pr
		default:
			list = append(list, serve.PublishRecord{})
			copy(list[i+1:], list[i:])
			list[i] = pr
		}
		// Keep the registry's pinnable history across compactions.
		if n := len(list) - serve.VersionHistory; n > 0 {
			list = append(list[:0:0], list[n:]...)
		}
		s.pubs[rec.Key] = list
	case classCheckpoint:
		s.cks[rec.Key] = checkpointEntry{payload: rec.Payload, at: rec.At}
	default:
		// Unknown class from a future version: retain nothing, lose nothing.
		s.logger.Warn("store skipping record of unknown class", "class", rec.Class, "key", rec.Key)
	}
}

// retainedLocked flattens the live state back into records, deterministic
// order (publishes by model then version, checkpoints by key) — the payload
// of both compaction and Backup.
func (s *Store) retainedLocked() []record {
	models := make([]string, 0, len(s.pubs))
	for m := range s.pubs {
		models = append(models, m)
	}
	sort.Strings(models)
	keys := make([]string, 0, len(s.cks))
	for k := range s.cks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var recs []record
	for _, m := range models {
		for _, pr := range s.pubs[m] {
			recs = append(recs, record{
				Class: classPublish, Key: pr.Model, Version: pr.Version,
				Kind: pr.Kind, Meta: pr.Meta, Payload: pr.Weights, At: pr.At,
			})
		}
	}
	for _, k := range keys {
		ck := s.cks[k]
		recs = append(recs, record{Class: classCheckpoint, Key: k, Payload: ck.payload, At: ck.at})
	}
	return recs
}

// maybeCompactLocked runs compaction on the append cadence. Compaction
// failure is logged and counted, never propagated: the append that triggered
// it is already durable, and the WAL simply keeps growing until a compaction
// succeeds.
func (s *Store) maybeCompactLocked() {
	if s.opts.CompactEvery <= 0 || s.sinceCompact < s.opts.CompactEvery {
		return
	}
	if err := s.compactLocked(); err != nil {
		s.stats.CompactionErrors++
		s.logger.Warn("store compaction failed; WAL grows until one succeeds", "err", err)
	}
}

// Compact forces a snapshot compaction: the retained state is written to a
// fresh snapshot (tmp + rename + dir sync) and the WAL resets to empty. A
// crash at any point leaves either the old snapshot + full WAL or the new
// snapshot (+ a WAL whose records double-apply harmlessly).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmp := filepath.Join(s.dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	for _, rec := range s.retainedLocked() {
		payload, err := encodeRecord(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := f.Write(frame(payload)); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: compact write: %w", err)
		}
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: compact sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact rename: %w", err)
	}
	if !s.opts.NoSync {
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("store: compact dir sync: %w", err)
		}
	}
	// The WAL's records are all inside the new snapshot now; reset it. Order
	// matters: rename first, truncate second — a crash in between re-applies
	// the WAL over the snapshot, which applyLocked absorbs.
	if err := s.wal.Truncate(0); err != nil {
		s.broken = true
		s.stats.Broken = true
		return fmt.Errorf("store: compact wal reset: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: compact wal sync: %w", err)
		}
	}
	s.walSize = 0
	s.stats.WALBytes = 0
	s.sinceCompact = 0
	s.stats.Compactions++
	return nil
}

// Backup implements serve.Store: it streams the retained state as a valid
// snapshot file. Restoring is copying the stream to <data-dir>/snapshot.bin
// in an empty data dir — the next Open boots from it. The record list is
// captured under the lock but encoded and written outside it, so a slow
// client never stalls appends.
func (s *Store) Backup(w io.Writer) (int64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	recs := s.retainedLocked()
	s.mu.Unlock()
	var total int64
	for _, rec := range recs {
		payload, err := encodeRecord(rec)
		if err != nil {
			return total, err
		}
		n, err := w.Write(frame(payload))
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("store: backup write: %w", err)
		}
	}
	return total, nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Broken = s.broken
	st.RetainedCheckpoints = len(s.cks)
	st.RetainedPublishes = 0
	for _, list := range s.pubs {
		st.RetainedPublishes += len(list)
	}
	return st
}

// WriteMetrics renders the store's counters as Prometheus series — wired
// into /metrics via serve.Server.AddMetricsSource. (The registry-level
// mobiledl_store_errors_total / mobiledl_store_degraded pair is emitted by
// the server itself; these are the store's internal mechanics.)
func (s *Store) WriteMetrics(w *metrics.PromWriter) {
	st := s.Stats()
	w.Counter("mobiledl_store_appends_total", "Records durably appended to the model store.", float64(st.Appends))
	w.Counter("mobiledl_store_append_failures_total", "Appends that failed and were undone (record not durable).", float64(st.AppendErrors))
	w.Counter("mobiledl_store_compactions_total", "Snapshot compactions completed.", float64(st.Compactions))
	w.Counter("mobiledl_store_compaction_errors_total", "Snapshot compactions that failed (WAL kept growing).", float64(st.CompactionErrors))
	w.Counter("mobiledl_store_recovered_records_total", "Records replayed from disk at boot.", float64(st.RecoveredRecords))
	w.Counter("mobiledl_store_truncated_bytes_total", "Damaged tail bytes truncated from the WAL at boot.", float64(st.TruncatedBytes))
	w.Gauge("mobiledl_store_wal_bytes", "Current WAL size in bytes (resets at compaction).", float64(st.WALBytes))
	w.Gauge("mobiledl_store_retained_publishes", "Publish records retained across all models.", float64(st.RetainedPublishes))
	w.Gauge("mobiledl_store_retained_checkpoints", "Checkpoint keys retained.", float64(st.RetainedCheckpoints))
}

// Close syncs and closes the WAL. Idempotent; the store refuses further
// operations afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if !s.opts.NoSync && !s.broken {
		err = s.wal.Sync()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
