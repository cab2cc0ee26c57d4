package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mobiledl/internal/serve"
)

func openT(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func pub(model string, version int, blob byte) serve.PublishRecord {
	return serve.PublishRecord{
		Model:   model,
		Version: version,
		Kind:    "test",
		Meta:    &serve.VersionMeta{Source: "test", Round: version},
		Weights: bytes.Repeat([]byte{blob}, 32),
		At:      time.Unix(int64(1700000000+version), 0),
	}
}

func mustAppend(t *testing.T, s *Store, rec serve.PublishRecord) {
	t.Helper()
	if err := s.AppendPublish(rec); err != nil {
		t.Fatalf("AppendPublish(%s v%d): %v", rec.Model, rec.Version, err)
	}
}

// versionsOf extracts the ascending version list for one model.
func versionsOf(recs []serve.PublishRecord, model string) []int {
	var out []int
	for _, r := range recs {
		if r.Model == model {
			out = append(out, r.Version)
		}
	}
	return out
}

// versionRange lists the versions lo..hi in ascending order.
func versionRange(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	mustAppend(t, s, pub("alpha", 1, 0xa1))
	mustAppend(t, s, pub("alpha", 2, 0xa2))
	mustAppend(t, s, pub("beta", 1, 0xb1))
	if err := s.SaveCheckpoint("fedserve/alpha", []byte("round-3")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, Options{Dir: dir})
	recs := r.Publishes()
	if got := versionsOf(recs, "alpha"); !sameInts(got, []int{1, 2}) {
		t.Fatalf("alpha versions after reopen = %v, want [1 2]", got)
	}
	if got := versionsOf(recs, "beta"); !sameInts(got, []int{1}) {
		t.Fatalf("beta versions after reopen = %v, want [1]", got)
	}
	for _, rec := range recs {
		if rec.Model == "alpha" && rec.Version == 2 {
			if !bytes.Equal(rec.Weights, bytes.Repeat([]byte{0xa2}, 32)) {
				t.Fatalf("alpha v2 weights corrupted across reopen")
			}
			if rec.Meta == nil || rec.Meta.Round != 2 {
				t.Fatalf("alpha v2 meta lost across reopen: %+v", rec.Meta)
			}
		}
	}
	ck, ok, err := r.LoadCheckpoint("fedserve/alpha")
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
	}
	if string(ck) != "round-3" {
		t.Fatalf("checkpoint payload = %q, want round-3", ck)
	}
	if st := r.Stats(); st.RecoveredRecords != 4 {
		t.Fatalf("RecoveredRecords = %d, want 4", st.RecoveredRecords)
	}
}

func TestTornTailTruncatedAtBoot(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	mustAppend(t, s, pub("m", 1, 1))
	mustAppend(t, s, pub("m", 2, 2))
	s.Close()

	// Simulate a crash mid-append: a third frame's prefix lands on disk.
	walPath := filepath.Join(dir, walFile)
	intact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeRecord(record{Class: classPublish, Key: "m", Version: 3, Payload: []byte{3}, At: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	fr := frame(payload)
	if err := os.WriteFile(walPath, append(intact, fr[:len(fr)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Options{Dir: dir})
	if got := versionsOf(r.Publishes(), "m"); !sameInts(got, []int{1, 2}) {
		t.Fatalf("versions after torn tail = %v, want [1 2]", got)
	}
	st := r.Stats()
	if st.TruncatedBytes == 0 {
		t.Fatal("expected truncated bytes reported after torn tail")
	}
	// The WAL must physically end at the intact prefix so new appends land
	// on clean bytes.
	if fi, _ := os.Stat(walPath); fi.Size() != int64(len(intact)) {
		t.Fatalf("wal size after recovery = %d, want %d", fi.Size(), len(intact))
	}
	mustAppend(t, r, pub("m", 3, 3))
	r.Close()
	rr := openT(t, Options{Dir: dir})
	if got := versionsOf(rr.Publishes(), "m"); !sameInts(got, []int{1, 2, 3}) {
		t.Fatalf("versions after post-recovery append = %v, want [1 2 3]", got)
	}
}

func TestMidFileCorruptionStopsReplayAtDamage(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	mustAppend(t, s, pub("m", 1, 1))
	off1, _ := os.Stat(filepath.Join(dir, walFile))
	mustAppend(t, s, pub("m", 2, 2))
	mustAppend(t, s, pub("m", 3, 3))
	s.Close()

	// Flip a checksum bit in the second frame: frames aren't
	// self-synchronizing, so replay keeps v1 and drops v2 and v3.
	walPath := filepath.Join(dir, walFile)
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	b[off1.Size()+4] ^= 0x01
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, Options{Dir: dir})
	if got := versionsOf(r.Publishes(), "m"); !sameInts(got, []int{1}) {
		t.Fatalf("versions after mid-file corruption = %v, want [1]", got)
	}
}

func TestCompactionRetentionAndCrashOrder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, CompactEvery: -1})
	last := serve.VersionHistory + 3
	for v := 1; v <= last; v++ {
		mustAppend(t, s, pub("m", v, byte(v)))
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := s.Stats()
	if st.WALBytes != 0 || st.Compactions != 1 {
		t.Fatalf("after compaction: WALBytes=%d Compactions=%d", st.WALBytes, st.Compactions)
	}
	if got, want := versionsOf(s.Publishes(), "m"), versionRange(last-serve.VersionHistory+1, last); !sameInts(got, want) {
		t.Fatalf("retained versions = %v, want %v", got, want)
	}
	s.Close()

	// A crash between snapshot rename and WAL truncation leaves both files
	// populated; replay double-applies the WAL's records harmlessly. Rebuild
	// that state: reopen, append, then copy the WAL alongside the snapshot.
	r := openT(t, Options{Dir: dir})
	mustAppend(t, r, pub("m", last+1, byte(last+1)))
	r.Close()
	wal, _ := os.ReadFile(filepath.Join(dir, walFile))
	snap, _ := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), append(snap, wal...), 0o644); err != nil {
		t.Fatal(err)
	}
	rr := openT(t, Options{Dir: dir})
	if got, want := versionsOf(rr.Publishes(), "m"), versionRange(last-serve.VersionHistory+2, last+1); !sameInts(got, want) {
		t.Fatalf("versions after double-apply = %v, want %v", got, want)
	}
}

func TestAutoCompactionOnCadence(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, CompactEvery: 3})
	for v := 1; v <= 7; v++ {
		mustAppend(t, s, pub("m", v, byte(v)))
	}
	st := s.Stats()
	if st.Compactions != 2 {
		t.Fatalf("Compactions = %d after 7 appends with CompactEvery=3, want 2", st.Compactions)
	}
	// Compaction keeps exactly the retained history: the last
	// VersionHistory versions.
	if got, want := versionsOf(s.Publishes(), "m"), versionRange(max(1, 8-serve.VersionHistory), 7); !sameInts(got, want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
}

func TestBackupRestoresIntoFreshDir(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	mustAppend(t, s, pub("m", 1, 1))
	mustAppend(t, s, pub("m", 2, 2))
	if err := s.SaveCheckpoint("ck", []byte("state")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := s.Backup(&buf)
	if err != nil {
		t.Fatalf("Backup: %v", err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("Backup reported %d bytes, wrote %d", n, buf.Len())
	}

	// Restore runbook: the stream IS a snapshot file.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, snapshotFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, Options{Dir: dir2})
	if got := versionsOf(r.Publishes(), "m"); !sameInts(got, []int{1, 2}) {
		t.Fatalf("restored versions = %v, want [1 2]", got)
	}
	ck, ok, _ := r.LoadCheckpoint("ck")
	if !ok || string(ck) != "state" {
		t.Fatalf("restored checkpoint = %q ok=%v", ck, ok)
	}
}

func TestCheckpointLatestWins(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	for i := 0; i < 3; i++ {
		if err := s.SaveCheckpoint("k", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	r := openT(t, Options{Dir: dir})
	ck, ok, _ := r.LoadCheckpoint("k")
	if !ok || string(ck) != "c" {
		t.Fatalf("latest checkpoint = %q ok=%v, want \"c\"", ck, ok)
	}
	if _, ok, _ := r.LoadCheckpoint("missing"); ok {
		t.Fatal("missing key reported present")
	}
}

func TestFailpointWriteIsCleanOneShot(t *testing.T) {
	fp := &Failpoints{}
	s := openT(t, Options{Dir: t.TempDir(), Failpoints: fp})
	mustAppend(t, s, pub("m", 1, 1))
	fp.FailWrite(1)
	if err := s.AppendPublish(pub("m", 2, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write failure returned %v", err)
	}
	// One-shot: the next append succeeds, and v2's slot is simply absent.
	mustAppend(t, s, pub("m", 3, 3))
	if got := versionsOf(s.Publishes(), "m"); !sameInts(got, []int{1, 3}) {
		t.Fatalf("versions = %v, want [1 3]", got)
	}
	if st := s.Stats(); st.AppendErrors != 1 || st.Appends != 2 {
		t.Fatalf("stats after failpoint: %+v", st)
	}
}

func TestFailpointFsyncUndoesFrame(t *testing.T) {
	dir := t.TempDir()
	fp := &Failpoints{}
	s := openT(t, Options{Dir: dir, Failpoints: fp})
	mustAppend(t, s, pub("m", 1, 1))
	before, _ := os.Stat(filepath.Join(dir, walFile))
	fp.FailFsync(1)
	if err := s.AppendPublish(pub("m", 2, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed fsync failure returned %v", err)
	}
	// Undone: the WAL is back at the record boundary, nothing half-written.
	after, _ := os.Stat(filepath.Join(dir, walFile))
	if after.Size() != before.Size() {
		t.Fatalf("wal grew from %d to %d despite undone append", before.Size(), after.Size())
	}
	mustAppend(t, s, pub("m", 3, 3))
	s.Close()
	r := openT(t, Options{Dir: dir})
	if got := versionsOf(r.Publishes(), "m"); !sameInts(got, []int{1, 3}) {
		t.Fatalf("versions after reopen = %v, want [1 3]", got)
	}
}

func TestFailpointTornBricksAppends(t *testing.T) {
	dir := t.TempDir()
	fp := &Failpoints{}
	s := openT(t, Options{Dir: dir, Failpoints: fp})
	mustAppend(t, s, pub("m", 1, 1))
	fp.TearWrite(1)
	if err := s.AppendPublish(pub("m", 2, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed torn write returned %v", err)
	}
	// The tail is damaged; appending past it would write unreachable frames.
	if err := s.AppendPublish(pub("m", 3, 3)); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after torn write returned %v, want ErrBroken", err)
	}
	s.Close()
	// Restart recovers: torn tail truncated, v1 intact, appends work again.
	r := openT(t, Options{Dir: dir})
	if got := versionsOf(r.Publishes(), "m"); !sameInts(got, []int{1}) {
		t.Fatalf("versions after torn-write restart = %v, want [1]", got)
	}
	if r.Stats().TruncatedBytes == 0 {
		t.Fatal("expected torn bytes truncated at boot")
	}
	mustAppend(t, r, pub("m", 2, 2))
}

func TestFailpointCorruptCRCIsLatent(t *testing.T) {
	dir := t.TempDir()
	fp := &Failpoints{}
	s := openT(t, Options{Dir: dir, Failpoints: fp})
	mustAppend(t, s, pub("m", 1, 1))
	fp.CorruptCRC(1)
	// The damage is silent: the append reports success.
	mustAppend(t, s, pub("m", 2, 2))
	s.Close()
	r := openT(t, Options{Dir: dir})
	if got := versionsOf(r.Publishes(), "m"); !sameInts(got, []int{1}) {
		t.Fatalf("versions after latent corruption = %v, want [1]", got)
	}
}

func TestDiskFullDegradesAndRecovers(t *testing.T) {
	fp := &Failpoints{}
	s := openT(t, Options{Dir: t.TempDir(), Failpoints: fp})
	mustAppend(t, s, pub("m", 1, 1))
	fp.SetDiskFull(true)
	for v := 2; v <= 4; v++ {
		if err := s.AppendPublish(pub("m", v, byte(v))); !errors.Is(err, ErrInjected) {
			t.Fatalf("append with disk full returned %v", err)
		}
	}
	fp.SetDiskFull(false)
	// The disk came back; appends resume without a restart.
	mustAppend(t, s, pub("m", 5, 5))
	if got := versionsOf(s.Publishes(), "m"); !sameInts(got, []int{1, 5}) {
		t.Fatalf("versions = %v, want [1 5]", got)
	}
	if st := s.Stats(); st.AppendErrors != 3 {
		t.Fatalf("AppendErrors = %d, want 3", st.AppendErrors)
	}
}

func TestClosedStoreRefusesOperations(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir()})
	mustAppend(t, s, pub("m", 1, 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.AppendPublish(pub("m", 2, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed store returned %v", err)
	}
	if _, err := s.Backup(&bytes.Buffer{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("backup on closed store returned %v", err)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}
