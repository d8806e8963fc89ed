package journal

import (
	"errors"
	"fmt"
	"sync"
)

// This file is the journal's fault-injection layer: a registry of named
// io-level crash points threaded through the Log's writer. Production
// code passes a nil injector (every check is a no-op); the crash-matrix
// tests arm a point, run the control plane until the injected error
// surfaces, flip the kill switch so nothing written after the "crash"
// persists, and then recover from the state directory to assert the
// recovery invariants.

// The named crash points, in the order a record or snapshot hits disk.
const (
	// PointAppendWrite is the record frame write. A partial arm here
	// models a torn write: a prefix of the frame reaches the file before
	// the failure.
	PointAppendWrite = "append.write"
	// PointAppendSync is the fsync after an append (SyncAlways) or from
	// the interval flusher / explicit Sync. A checked append crosses it
	// twice: once for its frame, once for its commit.
	PointAppendSync = "append.sync"
	// PointAppendCommit is a checked append's commit: the write of the CRC
	// over the complement it was written with, after the frame is synced.
	// A crash here leaves a frame recovery reads as a torn tail.
	PointAppendCommit = "append.commit"
	// PointSnapshotWrite is the snapshot temp-file write.
	PointSnapshotWrite = "snapshot.write"
	// PointSnapshotSync is the snapshot temp-file fsync.
	PointSnapshotSync = "snapshot.sync"
	// PointSnapshotRename is the atomic rename activating the snapshot.
	PointSnapshotRename = "snapshot.rename"
	// PointSnapshotTruncate is the journal rotation after a snapshot.
	PointSnapshotTruncate = "snapshot.truncate"
)

// Points lists every crash point, for matrix tests that enumerate them.
var Points = []string{
	PointAppendWrite,
	PointAppendSync,
	PointAppendCommit,
	PointSnapshotWrite,
	PointSnapshotSync,
	PointSnapshotRename,
	PointSnapshotTruncate,
}

// ErrInjected is the sentinel every injected fault wraps.
var ErrInjected = errors.New("injected fault")

// fault is one armed crash point.
type fault struct {
	// countdown is how many hits remain before the fault fires (1 fires
	// on the next hit).
	countdown int
	// frac is the fraction of the buffer persisted before a write-point
	// failure (0 = nothing reaches the file).
	frac float64
}

// FaultInjector injects failures at the journal's io crash points. The
// zero value (and a nil pointer) injects nothing. Hit counts accumulate
// even for unarmed points, so tests can discover how often a scenario
// crosses each point before building a crash matrix over them.
type FaultInjector struct {
	mu     sync.Mutex
	faults map[string]*fault // guarded by mu
	hits   map[string]int    // guarded by mu
	// killed fails every subsequent operation: the process "crashed" and
	// nothing after the crash point may reach the disk.
	killed bool // guarded by mu
}

// Crash arms point to fail (completely — nothing persists) on its after-th
// upcoming hit; after=1 fails the very next hit.
func (fi *FaultInjector) Crash(point string, after int) {
	fi.CrashPartial(point, after, 0)
}

// CrashPartial arms point like Crash, but a write-point failure first
// persists frac of the buffer — a torn write straddling the crash.
func (fi *FaultInjector) CrashPartial(point string, after int, frac float64) {
	if after < 1 {
		after = 1
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.faults == nil {
		fi.faults = map[string]*fault{}
	}
	fi.faults[point] = &fault{countdown: after, frac: frac}
}

// Kill flips the kill switch: every subsequent operation at every point
// fails. Tests call it the moment an injected fault surfaces, so the
// in-memory server being torn down cannot "accidentally" persist state a
// real SIGKILL would have lost.
func (fi *FaultInjector) Kill() {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.killed = true
}

// Hits returns how many times point has been crossed.
func (fi *FaultInjector) Hits(point string) int {
	if fi == nil {
		return 0
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.hits[point]
}

// check records one hit of point and reports whether the operation must
// fail. For write points, frac is how much of the buffer persists before
// the failure. Nil-receiver safe: production code passes no injector.
func (fi *FaultInjector) check(point string) (frac float64, err error) {
	if fi == nil {
		return 0, nil
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.hits == nil {
		fi.hits = map[string]int{}
	}
	fi.hits[point]++
	if fi.killed {
		return 0, fmt.Errorf("%s after kill: %w", point, ErrInjected)
	}
	f := fi.faults[point]
	if f == nil {
		return 0, nil
	}
	f.countdown--
	if f.countdown > 0 {
		return 0, nil
	}
	delete(fi.faults, point)
	return f.frac, fmt.Errorf("%s: %w", point, ErrInjected)
}
