package store

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the root of every fault the Failpoints seam injects, so
// tests (and the degraded-mode plumbing) can tell injected faults from real
// I/O errors with errors.Is.
var ErrInjected = errors.New("store: injected fault")

// Injected fault classes. Torn and corrupt faults simulate a crash mid-write:
// they leave damaged bytes on disk on purpose, which is exactly what the
// recovery path must survive.
var (
	errInjectedWrite = fmt.Errorf("%w: frame write failed", ErrInjected)
	errInjectedTorn  = fmt.Errorf("%w: frame write torn mid-frame", ErrInjected)
	errInjectedFsync = fmt.Errorf("%w: fsync failed", ErrInjected)
	errInjectedFull  = fmt.Errorf("%w: disk full", ErrInjected)
)

// faultKind is the decision the write path asks Failpoints for.
type faultKind int

const (
	faultNone faultKind = iota
	// faultWrite: the frame write errors cleanly; nothing reaches disk.
	faultWrite
	// faultTorn: half the frame reaches disk, then the write errors — a
	// torn tail recovery must truncate. The store treats it as a crash of
	// the persistence layer: no undo, subsequent appends fail.
	faultTorn
	// faultCorrupt: the frame is written whole but with a corrupted
	// checksum. The write "succeeds"; the damage only surfaces at replay.
	faultCorrupt
	// faultFull: persistent failure (every write errors until cleared) —
	// the graceful-degradation drill.
	faultFull
)

// Failpoints injects storage faults at the store's I/O seam, the engine of
// the kill-recover test suite. Arm a fault with an N (the Nth matching
// operation from now, 1 = the next one) with the arming methods in
// failpoints_test.go, set it as Options.failpoints, and the store consults it
// on every frame write and fsync. All methods are safe for
// concurrent use; a nil *Failpoints injects nothing.
type Failpoints struct {
	mu       sync.Mutex
	writeN   int
	tornN    int
	corruptN int
	fsyncN   int
	diskFull bool

	// Fired counts how many faults actually triggered (test assertions).
	fired int
}

// onWrite draws the fault decision for one frame write. Each armed one-shot
// counter ticks down per write; whichever reaches zero first fires.
func (f *Failpoints) onWrite() faultKind {
	if f == nil {
		return faultNone
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.diskFull {
		f.fired++
		return faultFull
	}
	kind := faultNone
	tick := func(field *int, k faultKind) {
		if *field <= 0 {
			return
		}
		*field--
		if *field == 0 && kind == faultNone {
			kind = k
		}
	}
	tick(&f.writeN, faultWrite)
	tick(&f.tornN, faultTorn)
	tick(&f.corruptN, faultCorrupt)
	if kind != faultNone {
		f.fired++
	}
	return kind
}

// onFsync reports whether this fsync should fail.
func (f *Failpoints) onFsync() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fsyncN <= 0 {
		return false
	}
	f.fsyncN--
	if f.fsyncN == 0 {
		f.fired++
		return true
	}
	return false
}
