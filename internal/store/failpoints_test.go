package store

// The arming side of Failpoints: only tests inject faults.

// FailWrite arms a clean write failure on the nth frame write from now:
// the append errors, nothing reaches disk.
func (f *Failpoints) FailWrite(n int) { f.set(&f.writeN, n) }

// TearWrite arms a torn write on the nth frame write from now: a prefix of
// the frame reaches disk, then the write errors and the store refuses
// further appends (simulating a crash mid-write). Recovery must truncate
// the torn tail.
func (f *Failpoints) TearWrite(n int) { f.set(&f.tornN, n) }

// CorruptCRC arms checksum corruption on the nth frame write from now: the
// frame lands on disk whole but invalid, and the append reports success —
// latent damage only replay can detect.
func (f *Failpoints) CorruptCRC(n int) { f.set(&f.corruptN, n) }

// FailFsync arms a failure of the nth fsync from now. The store undoes the
// un-synced frame (truncating back), so the append errors and the record is
// not durable.
func (f *Failpoints) FailFsync(n int) { f.set(&f.fsyncN, n) }

// SetDiskFull toggles a persistent write failure: every append errors until
// cleared, the runtime graceful-degradation scenario.
func (f *Failpoints) SetDiskFull(on bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.diskFull = on
	f.mu.Unlock()
}

// Fired reports how many armed faults have triggered so far.
func (f *Failpoints) Fired() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

func (f *Failpoints) set(field *int, n int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	*field = n
	f.mu.Unlock()
}
