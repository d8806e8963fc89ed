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
// Recovery never refuses to start on a torn tail: the first frame whose
// header is short, whose length is absurd, whose CRC mismatches, or whose
// seq does not increase marks the end of the usable log — everything
// before it is replayed, and the file is truncated there so appends
// continue from a clean boundary. A corrupt snapshot file, by contrast,
// is a hard error: snapshots are written to a temp file and renamed into
// place, so a damaged one means the disk lost data the journal no longer
// holds, and silently starting empty would be worse than stopping.
//
// # Reading the log
//
// A Reader reads the log one verified frame at a time, each payload into
// a buffer its caller lends, so what recovery holds of the raw log is one
// record per buffer, not the whole file; the caller decodes a record and
// lends the buffer again. Open is the Reader collecting every record into
// a payload of its own.
package journal

import (
	"encoding/binary"
	"errors"
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

// MaxSnapshot bounds the snapshot, which holds the whole registry rather
// than one record: a 197-server fleet with its baseline and two history
// windows is 8.9 MB, so 1 GiB holds over a hundred of them. The frame's
// uint32 length field could carry up to 4 GiB.
const MaxSnapshot = 1 << 30

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

// DefaultSyncEvery is the SyncInterval ticker period when Options leaves
// SyncEvery unset, and the default of `kairos serve -fsync-every`.
const DefaultSyncEvery = 50 * time.Millisecond

// Options configures a Log.
type Options struct {
	// Sync is the fsync policy for appends. Defaults to SyncAlways.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval ticker period (default DefaultSyncEvery).
	SyncEvery time.Duration
	// Fault is the test-only crash-point injector; nil in production.
	Fault *FaultInjector
}

// Record is one recovered journal entry.
type Record struct {
	// Seq is the record's journal sequence number.
	Seq uint64
	// Payload is the opaque record body the caller appended: from Open, a
	// slice of its own; from Reader.Next, the buffer it was lent, which
	// the next call reads over.
	Payload []byte
}

// Recovered is everything Open rebuilt from the state directory. Each
// record payload is a buffer of its own, cap-clipped; the snapshot is a
// cap-clipped sub-slice of the buffer its file was read into.
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
// returns the log ready for appends: a Reader read to its end, each record
// into a payload of its own.
func Open(dir string, opt Options) (*Log, *Recovered, error) {
	r, err := OpenReader(dir, opt)
	if err != nil {
		return nil, nil, err
	}
	rec := &Recovered{Snapshot: r.Snapshot, SnapshotSeq: r.SnapshotSeq}
	for {
		next, err := r.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, errors.Join(err, r.Close())
		}
		// Cap-clipped: a buffer first made for a larger compacted frame
		// is no one's to append into.
		next.Payload = next.Payload[:len(next.Payload):len(next.Payload)]
		rec.Records = append(rec.Records, next)
	}
	l, err := r.Log()
	if err != nil {
		return nil, nil, err
	}
	rec.TornTail, rec.TornOffset = r.TornTail, r.TornOffset
	return l, rec, nil
}

// Reader reads a state directory back: the snapshot when it opens, then
// the log one frame at a time. Scanning stops at the first bad frame —
// short header, absurd length, CRC mismatch or non-increasing seq all
// mean the rest of the file is unusable; everything before it is intact
// by checksum. Once Next has reported the end, Log truncates the file
// there and hands it over for appends. A Reader is not safe for
// concurrent use.
type Reader struct {
	// Snapshot is the latest snapshot payload, nil if none was taken, and
	// SnapshotSeq the last sequence number it covers.
	Snapshot    []byte
	SnapshotSeq uint64
	// TornTail reports that the log ended in a partial or corrupt frame,
	// and TornOffset where: the length the file is truncated to. Both are
	// set when Next reports the end.
	TornTail   bool
	TornOffset int64

	dir string
	opt Options
	f   *os.File // nil once Log or Close has taken it
	// size is the file's length, good the length of the whole frames read
	// so far, and last the seq of the last of them.
	size, good int64
	last       uint64
	// header is the frame header being read, kept here so reading one
	// allocates nothing.
	header [frameHeaderSize]byte
	// err is io.EOF once the log has ended, or the read error that ended it.
	err error
}

// OpenReader opens (creating if needed) the state directory dir and reads
// and verifies its snapshot; a snapshot that does not verify is an error.
func OpenReader(dir string, opt Options) (*Reader, error) {
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = DefaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating state dir: %w", err)
	}
	r := &Reader{dir: dir, opt: opt}
	snapPath := filepath.Join(dir, snapshotFile)
	if raw, err := os.ReadFile(snapPath); err == nil {
		seq, payload, n, ferr := parseFrame(raw, MaxSnapshot)
		if ferr != nil || n != len(raw) {
			return nil, fmt.Errorf("journal: snapshot %s is corrupt (%v): refusing to start with partial state", snapPath, ferr)
		}
		r.Snapshot, r.SnapshotSeq = payload, seq
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: reading snapshot: %w", err)
	}

	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("journal: reading journal: %w", err), f.Close())
	}
	r.f, r.size = f, st.Size()
	return r, nil
}

// Next returns the next record past the snapshot, its payload read into
// buf when it fits there and into a new buffer when it does not. It
// returns io.EOF at the end of the log, and any other error only when the
// file could not be read.
func (r *Reader) Next(buf []byte) (Record, error) {
	for r.err == nil {
		rest := r.size - r.good
		if rest == 0 {
			r.err = io.EOF
			break
		}
		if rest < frameHeaderSize {
			r.tear()
			break
		}
		header := r.header[:]
		if _, err := io.ReadFull(r.f, header); err != nil {
			r.err = fmt.Errorf("journal: reading journal: %w", err)
			break
		}
		n, err := frameLength(header, MaxRecord)
		if err != nil || frameHeaderSize+int64(n) > rest {
			r.tear()
			break
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(r.f, payload); err != nil {
			r.err = fmt.Errorf("journal: reading journal: %w", err)
			break
		}
		seq, err := frameSeq(header, payload)
		if err != nil || (r.last > 0 && seq <= r.last) {
			r.tear()
			break
		}
		r.last = seq
		r.good += frameHeaderSize + int64(n)
		if seq > r.SnapshotSeq {
			return Record{Seq: seq, Payload: payload}, nil
		}
		buf = payload // already compacted into the snapshot
	}
	return Record{}, r.err
}

// tear ends the log at the last whole frame.
func (r *Reader) tear() {
	r.TornTail, r.TornOffset, r.err = true, r.good, io.EOF
}

// Log truncates a torn tail and returns the journal positioned after the
// last whole frame, ready for appends. Next must have returned io.EOF.
func (r *Reader) Log() (*Log, error) {
	switch {
	case r.err != io.EOF:
		return nil, fmt.Errorf("journal: Log before the end of the log (%v)", r.err)
	case r.f == nil:
		return nil, fmt.Errorf("journal: Log on a closed reader")
	}
	f := r.f
	r.f = nil
	if r.TornTail {
		if err := f.Truncate(r.good); err != nil {
			return nil, errors.Join(fmt.Errorf("journal: truncating torn tail at %d: %w", r.good, err), f.Close())
		}
	}
	if _, err := f.Seek(r.good, io.SeekStart); err != nil {
		return nil, errors.Join(fmt.Errorf("journal: seeking to append position: %w", err), f.Close())
	}
	l := &Log{
		dir:     r.dir,
		opt:     r.opt,
		f:       f,
		seq:     max(r.last, r.SnapshotSeq),
		snapSeq: r.SnapshotSeq,
		size:    r.good,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if r.opt.Sync == SyncInterval {
		go l.flushLoop()
	} else {
		close(l.done)
	}
	return l, nil
}

// Close closes a reader whose log is not wanted after all, leaving the
// file as it was. It does nothing once Log has handed the file over.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	f := r.f
	r.f = nil
	return f.Close()
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
	if len(state) > MaxSnapshot {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds the %d-byte limit", len(state), MaxSnapshot)
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

// parseFrame decodes the frame at the start of raw, whose payload may be
// at most limit bytes long, returning its seq, payload (a cap-clipped
// sub-slice of raw) and total encoded size.
func parseFrame(raw []byte, limit int) (seq uint64, payload []byte, n int, err error) {
	if len(raw) < frameHeaderSize {
		return 0, nil, 0, fmt.Errorf("short frame header (%d bytes)", len(raw))
	}
	length, err := frameLength(raw, limit)
	if err != nil {
		return 0, nil, 0, err
	}
	total := frameHeaderSize + length
	if len(raw) < total {
		return 0, nil, 0, fmt.Errorf("truncated frame (%d of %d bytes)", len(raw), total)
	}
	payload = raw[frameHeaderSize:total:total]
	if seq, err = frameSeq(raw, payload); err != nil {
		return 0, nil, 0, err
	}
	return seq, payload, total, nil
}

// frameLength returns the payload length a frame header declares, which
// must be in (0, limit].
func frameLength(header []byte, limit int) (int, error) {
	length := binary.LittleEndian.Uint32(header[0:4])
	if length == 0 || uint64(length) > uint64(limit) {
		return 0, fmt.Errorf("absurd frame length %d", length)
	}
	return int(length), nil
}

// frameSeq checks a frame's CRC over its seq and payload and returns the
// seq.
func frameSeq(header, payload []byte) (uint64, error) {
	want := binary.LittleEndian.Uint32(header[4:8])
	if got := crc32.Update(crc32.Checksum(header[8:16], castagnoli), castagnoli, payload); got != want {
		return 0, fmt.Errorf("CRC mismatch (%08x != %08x)", got, want)
	}
	return binary.LittleEndian.Uint64(header[8:16]), nil
}
