// Package journal is the control plane's durability layer: an append-only,
// CRC-checksummed write-ahead log plus an atomically replaced snapshot
// file. The server journals every control-plane mutation (fleet
// registration, acked observation windows, incumbent-plan advances,
// detector rebase events) before publishing its effects, periodically
// compacts the log into a snapshot, and on restart replays snapshot +
// journal to rebuild its in-memory state — the prerequisite for running
// consolidation as a long-lived service whose plans and monitoring state
// survive crashes and redeploys.
//
// The journal is deliberately payload-agnostic: records are opaque byte
// slices (the server uses JSON wire types from internal/server), and the
// package only owns framing, checksums, sequencing, fsync policy and
// crash recovery.
//
// # On-disk layout
//
//	<dir>/journal.wal      append-only record frames
//	<dir>/snapshot.kairos  one frame holding the compacted state
//	<dir>/snapshot.tmp     in-progress snapshot (ignored on open)
//
// Each frame is
//
//	uint32  payload length (little endian)
//	uint32  CRC32-C over seq || payload
//	uint64  seq (little endian)
//	[]byte  payload
//
// Sequence numbers increase monotonically across the journal's lifetime
// (they survive snapshot rotation), so a crash between renaming a new
// snapshot and truncating the journal is harmless: replay just skips the
// journal prefix the snapshot already covers.
//
// # Recovery semantics
//
// Open never refuses to start on a torn tail: the first frame whose
// header is short, whose length is absurd, whose CRC mismatches, or whose
// seq does not increase marks the end of the usable log — everything
// before it is replayed, and the file is truncated there so appends
// continue from a clean boundary. A corrupt snapshot file, by contrast,
// is a hard error: snapshots are written to a temp file and renamed into
// place, so a damaged one means the disk lost data the journal no longer
// holds, and silently starting empty would be worse than stopping.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// File names within the state directory.
const (
	journalFile  = "journal.wal"
	snapshotFile = "snapshot.kairos"
	snapshotTmp  = "snapshot.tmp"
)

// frameHeaderSize is the fixed prefix of every frame: length, CRC, seq.
const frameHeaderSize = 4 + 4 + 8

// MaxRecord bounds a single record's payload. A 197-workload observation
// window with week-long series is a few MB of JSON; 64 MiB leaves two
// orders of magnitude of headroom while still letting recovery reject a
// garbage length field immediately.
const MaxRecord = 64 << 20

// castagnoli is the CRC32-C table (the checksum used by iSCSI, ext4 and
// most journaled stores; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acked record is ever lost
	// to a crash, at the cost of one fsync per window. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery):
	// bounded data loss — records acked within the last interval may
	// vanish on a power cut — with near-zero per-append cost.
	SyncInterval
	// SyncNone leaves flushing to the OS page cache: fastest, and a clean
	// process exit (or plain crash with the OS surviving) still loses
	// nothing, but a power cut may drop any un-flushed suffix.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the `kairos serve -fsync` flag values onto a
// policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or none)", s)
	}
}

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy for appends. Defaults to SyncAlways.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval ticker period. Defaults to 100ms.
	SyncEvery time.Duration
	// Fault is the test-only crash-point injector; nil in production.
	Fault *FaultInjector
}

// Record is one recovered journal entry.
type Record struct {
	// Seq is the record's journal sequence number.
	Seq uint64
	// Payload is the opaque record body the caller appended. It aliases
	// the buffer Open read the journal into (see Recovered).
	Payload []byte
}

// Recovered is everything Open rebuilt from the state directory. The
// snapshot and the record payloads are cap-clipped sub-slices of the two
// buffers the files were read into, not copies: holding any one of them
// keeps its whole file's bytes alive, so decode them and let go.
type Recovered struct {
	// Snapshot is the latest snapshot payload, nil if none was taken.
	Snapshot []byte
	// SnapshotSeq is the last sequence number the snapshot covers.
	SnapshotSeq uint64
	// Records are the journal entries after the snapshot, in order.
	Records []Record
	// TornTail reports that the journal ended in a partial or corrupt
	// frame which recovery truncated away.
	TornTail bool
	// TornOffset is the byte offset the journal was truncated to when
	// TornTail is set.
	TornOffset int64
}

// Log is an open write-ahead journal. All methods are safe for concurrent
// use; appends and snapshots serialize on an internal mutex.
type Log struct {
	dir string
	opt Options

	mu sync.Mutex
	f  *os.File // guarded by mu
	// seq is the last assigned sequence number (guarded by mu).
	seq uint64
	// snapSeq is the last sequence number covered by the on-disk snapshot
	// (guarded by mu).
	snapSeq uint64
	// size is the journal file's current length (guarded by mu).
	size int64
	// dirty reports appends not yet fsynced (guarded by mu).
	dirty bool
	// poisoned is set after a failed append write: the file may end in a
	// torn frame of unknown length, so further appends would interleave
	// garbage. Only a restart (which truncates the tail) clears it.
	poisoned bool // guarded by mu
	closed   bool // guarded by mu
	// frame is Append's frame buffer, kept between appends so a record's
	// parts are copied once, into memory already owned (guarded by mu).
	frame []byte

	// appends, syncs and snapshots count successful operations for the
	// server's /metrics (guarded by mu).
	appends   int64
	syncs     int64
	snapshots int64

	// stop terminates the SyncInterval flusher goroutine.
	stop chan struct{}
	done chan struct{}
}

// Stats is a point-in-time summary of the journal for metrics export.
type Stats struct {
	// Seq is the last assigned sequence number.
	Seq uint64
	// SnapshotSeq is the last snapshot's covered sequence number.
	SnapshotSeq uint64
	// Appends, Syncs and Snapshots count successful operations.
	Appends   int64
	Syncs     int64
	Snapshots int64
	// SizeBytes is the journal file's current length.
	SizeBytes int64
}

// Open opens (creating if needed) the journal in dir, recovers the
// snapshot and every intact record after it, truncates any torn tail, and
// returns the log ready for appends.
func Open(dir string, opt Options) (*Log, *Recovered, error) {
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating state dir: %w", err)
	}
	rec := &Recovered{}

	snapPath := filepath.Join(dir, snapshotFile)
	if raw, err := os.ReadFile(snapPath); err == nil {
		seq, payload, n, ferr := parseFrame(raw)
		if ferr != nil || n != len(raw) {
			return nil, nil, fmt.Errorf("journal: snapshot %s is corrupt (%v): refusing to start with partial state", snapPath, ferr)
		}
		rec.Snapshot = payload
		rec.SnapshotSeq = seq
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: reading snapshot: %w", err)
	}

	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening journal: %w", err)
	}
	raw, err := readFile(f)
	if err != nil {
		f.Close() //kairoslint:allow errflow: already failing with the read error; a close error would mask it
		return nil, nil, fmt.Errorf("journal: reading journal: %w", err)
	}

	// Scan frames until the first bad one: short header, absurd length,
	// CRC mismatch or non-increasing seq all mean the rest of the file is
	// unusable. Everything before the bad frame is intact by checksum.
	good := int64(0)
	lastSeq := uint64(0)
	for off := 0; off < len(raw); {
		seq, payload, n, ferr := parseFrame(raw[off:])
		if ferr != nil || (lastSeq > 0 && seq <= lastSeq) {
			break
		}
		lastSeq = seq
		off += n
		good = int64(off)
		if seq <= rec.SnapshotSeq {
			continue // already compacted into the snapshot
		}
		rec.Records = append(rec.Records, Record{Seq: seq, Payload: payload})
	}
	if good < int64(len(raw)) {
		rec.TornTail = true
		rec.TornOffset = good
		if err := f.Truncate(good); err != nil {
			f.Close() //kairoslint:allow errflow: already failing with the truncate error; a close error would mask it
			return nil, nil, fmt.Errorf("journal: truncating torn tail at %d: %w", good, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close() //kairoslint:allow errflow: already failing with the seek error; a close error would mask it
		return nil, nil, fmt.Errorf("journal: seeking to append position: %w", err)
	}

	l := &Log{
		dir:     dir,
		opt:     opt,
		f:       f,
		seq:     max(lastSeq, rec.SnapshotSeq),
		snapSeq: rec.SnapshotSeq,
		size:    good,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if opt.Sync == SyncInterval {
		go l.flushLoop()
	} else {
		close(l.done)
	}
	return l, rec, nil
}

// readFile reads f, positioned at its start, into a buffer sized from
// its length: one allocation, where io.ReadAll's doubling would copy a
// long journal several times over.
func readFile(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, st.Size())
	_, err = io.ReadFull(f, raw)
	return raw, err
}

// flushLoop is the SyncInterval background flusher.
func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Best effort: an interval-policy flush failure surfaces on
			// the next explicit Sync/Close, and the policy already
			// tolerates a bounded unsynced window.
			_ = l.Sync() //kairoslint:allow errflow: interval-policy flush; a failure surfaces on the next explicit Sync/Close
		case <-l.stop:
			return
		}
	}
}

// Append writes one record, the concatenation of parts, and returns its
// sequence number: a caller holding a record in pieces hands them over as
// they are, and they are copied once, into the frame. Under SyncAlways the
// record is on stable storage when Append returns; an error means the
// record must be treated as not durable (though recovery may still replay
// it if the write in fact reached the disk — callers must make
// replayed-but-unacked operations idempotent). The parts are not retained.
func (l *Log) Append(parts ...[]byte) (uint64, error) {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return 0, fmt.Errorf("journal: append on closed log")
	case l.poisoned:
		return 0, fmt.Errorf("journal: log poisoned by an earlier failed write; restart to truncate the torn tail")
	case size == 0:
		return 0, fmt.Errorf("journal: empty record")
	case size > MaxRecord:
		return 0, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", size, MaxRecord)
	}
	seq := l.seq + 1
	l.frame = appendFrame(l.frame[:0], seq, parts...)
	if err := l.write(l.f, PointAppendWrite, l.frame); err != nil {
		// The file may now end in a torn frame of unknown length; only
		// recovery (which truncates at the first bad CRC) can clean it.
		l.poisoned = true
		return 0, fmt.Errorf("journal: appending record: %w", err)
	}
	l.seq = seq
	l.size += int64(len(l.frame))
	l.appends++
	l.dirty = true
	if l.opt.Sync == SyncAlways {
		if err := l.syncLocked(PointAppendSync); err != nil {
			return 0, fmt.Errorf("journal: fsync after append: %w", err)
		}
	}
	return seq, nil
}

// Sync flushes appended records to stable storage (a no-op when nothing
// is dirty).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.dirty {
		return nil
	}
	return l.syncLocked(PointAppendSync)
}

// syncLocked fsyncs the journal file. Callers hold l.mu.
func (l *Log) syncLocked(point string) error {
	if err := l.sync(l.f, point); err != nil {
		return err
	}
	l.dirty = false
	l.syncs++
	return nil
}

// sync fsyncs f through the fault injector.
func (l *Log) sync(f *os.File, point string) error {
	if _, err := l.opt.Fault.check(point); err != nil {
		return err
	}
	return f.Sync()
}

// Snapshot atomically replaces the snapshot file with state (covering
// every record appended so far) and truncates the journal. A crash at any
// step leaves a recoverable directory: the temp file is ignored on open,
// and a renamed snapshot with an untruncated journal just makes replay
// skip the compacted prefix by sequence number.
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("journal: snapshot on closed log")
	}
	if len(state) > MaxRecord {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds the %d-byte limit", len(state), MaxRecord)
	}
	tmp := filepath.Join(l.dir, snapshotTmp)
	if err := l.installSnapshot(tmp, appendFrame(nil, l.seq, state)); err != nil {
		os.Remove(tmp) //kairoslint:allow errflow: best-effort cleanup of the temp snapshot on the failure path
		return err
	}
	l.syncDir()

	// The snapshot is active from here on; rotating the journal is pure
	// space reclamation, and a crash before the truncate only leaves a
	// prefix that replay skips by seq.
	l.snapSeq = l.seq
	l.snapshots++
	if _, err := l.opt.Fault.check(PointSnapshotTruncate); err != nil {
		return fmt.Errorf("journal: truncating rotated journal: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: truncating rotated journal: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: rewinding rotated journal: %w", err)
	}
	l.size = 0
	l.dirty = false
	return nil
}

// installSnapshot writes frame to the temp file tmp, makes it durable and
// renames it over the snapshot. On an error the caller removes tmp.
func (l *Log) installSnapshot(tmp string, frame []byte) error {
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: creating snapshot temp file: %w", err)
	}
	if err := l.writeSyncClose(tf, frame); err != nil {
		return err
	}
	if _, err := l.opt.Fault.check(PointSnapshotRename); err != nil {
		return fmt.Errorf("journal: renaming snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotFile)); err != nil {
		return fmt.Errorf("journal: renaming snapshot: %w", err)
	}
	return nil
}

// writeSyncClose writes frame to the snapshot temp file f, fsyncs and
// closes it, and returns the first of the three to fail; f is closed
// either way.
func (l *Log) writeSyncClose(f *os.File, frame []byte) error {
	err := l.write(f, PointSnapshotWrite, frame)
	if err != nil {
		err = fmt.Errorf("journal: writing snapshot: %w", err)
	} else if err = l.sync(f, PointSnapshotSync); err != nil {
		err = fmt.Errorf("journal: fsync of snapshot: %w", err)
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: closing snapshot temp file: %w", cerr)
	}
	return err
}

// syncDir fsyncs the state directory so the snapshot rename itself is
// durable. Best effort: on filesystems where directories cannot be
// fsynced the rename is already as durable as it gets.
func (l *Log) syncDir() {
	d, err := os.Open(l.dir)
	if err != nil {
		return
	}
	_ = d.Sync()  //kairoslint:allow errflow: best-effort directory sync; rename durability is advisory on some filesystems
	_ = d.Close() //kairoslint:allow errflow: read-only directory handle; close reports nothing actionable
}

// write writes b to f through the fault injector: an armed write point
// may persist only a prefix (a torn write) before failing.
func (l *Log) write(f *os.File, point string, b []byte) error {
	frac, err := l.opt.Fault.check(point)
	if err != nil {
		if n := int(frac * float64(len(b))); n > 0 {
			_, _ = f.Write(b[:min(n, len(b))]) //kairoslint:allow errflow: deliberate torn write; the injected fault error is about to be returned
		}
		return err
	}
	_, err = f.Write(b)
	return err
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Stats summarizes the journal for metrics export.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Seq:         l.seq,
		SnapshotSeq: l.snapSeq,
		Appends:     l.appends,
		Syncs:       l.syncs,
		Snapshots:   l.snapshots,
		SizeBytes:   l.size,
	}
}

// Close flushes and closes the journal. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.opt.Sync == SyncInterval {
		close(l.stop)
	}
	var err error
	if l.dirty && !l.poisoned {
		err = l.syncLocked(PointAppendSync)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	<-l.done
	return err
}

// appendFrame renders one record frame, whose payload is the parts in
// order, into buf's spare capacity, growing it only when the frame does
// not fit, and returns the frame.
func appendFrame(buf []byte, seq uint64, parts ...[]byte) []byte {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	var header [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(size))
	binary.LittleEndian.PutUint64(header[8:16], seq)
	frame := append(slices.Grow(buf, frameHeaderSize+size), header[:]...)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	// The CRC covers seq and payload so a frame cannot be spliced onto a
	// different position in the log.
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], castagnoli))
	return frame
}

// parseFrame decodes the frame at the start of raw, returning its seq,
// payload (a cap-clipped sub-slice of raw) and total encoded size.
func parseFrame(raw []byte) (seq uint64, payload []byte, n int, err error) {
	if len(raw) < frameHeaderSize {
		return 0, nil, 0, fmt.Errorf("short frame header (%d bytes)", len(raw))
	}
	length := binary.LittleEndian.Uint32(raw[0:4])
	if length == 0 || length > MaxRecord {
		return 0, nil, 0, fmt.Errorf("absurd frame length %d", length)
	}
	total := frameHeaderSize + int(length)
	if len(raw) < total {
		return 0, nil, 0, fmt.Errorf("truncated frame (%d of %d bytes)", len(raw), total)
	}
	want := binary.LittleEndian.Uint32(raw[4:8])
	if got := crc32.Checksum(raw[8:total], castagnoli); got != want {
		return 0, nil, 0, fmt.Errorf("CRC mismatch (%08x != %08x)", got, want)
	}
	seq = binary.LittleEndian.Uint64(raw[8:16])
	return seq, raw[frameHeaderSize:total:total], total, nil
}
