package server

// Crash recovery for the durable control plane. The journal (see
// internal/journal) holds a snapshot of the full registry plus an ordered
// suffix of mutation records (RecordWire); replay restores the snapshot,
// then applies each record with the function the live server applied it
// with right after appending it (server.go's apply functions) — a window
// goes through the detector and into the ack ring, and what its trigger
// led to is whatever the next record says: an advance rebuilt from its
// journaled incumbent (no re-solve) or a rearm — and finally starts a
// reconcile loop per recovered fleet.
//
// Convention (see CONTRIBUTING.md): every new control-plane mutation
// needs a RecordWire field, an append, and one apply function called by
// both the live path and replay's switch in this file. The apply function
// takes the journaled token its append returned, so a mutation applied
// before it is journaled does not compile; TestReplayAppliesEveryRecordKind
// checks that replay's switch has a case for every field.
//
// Replay is two stages. The decode stage (decodeAhead) reads the journal
// one frame at a time and turns each record's payload into a *RecordWire
// with decodeRecord. A worker claims the next record by reading its frame
// into a buffer of its own under the reader's lock, then decodes it
// outside the lock; decodeRecord reads the payload and nothing else, and
// nothing it returns aliases it, so the buffer takes the worker's next
// record. The workers are a helper per free slot of the CPU budget and the
// apply loop. The helpers start as soon as the snapshot file has been
// read, so that restoring the snapshot on the calling goroutine overlaps
// reading and decoding the log. The apply stage is the one loop in
// replay: it takes records strictly in journal order and applies each
// under s.mu, so replay equals live whatever the helper count. When the
// record it needs next is a helper's, not yet decoded, it claims a later
// one rather than wait idle, within the look-ahead bound
// (decodeAheadPerWorker): a decoded window is about a megabyte of floats,
// and a journal of hundreds must not sit in memory. What recovery holds of
// the raw log is one record per worker. A record that does not decode
// fails the replay with the error the sequential loop gave, and only once
// every record before it has been applied; what the workers made of later
// records is dropped. No goroutine outlives replay. decodeSnapshot stays
// one call on the calling goroutine: once a snapshot is itself a sequence
// of records (ROADMAP item 5 stage B) it goes through this pipeline and
// decodeSnapshot is deleted, so splitting it would be work thrown away.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kairos"
	"kairos/internal/cpu"
	"kairos/internal/journal"
)

// RecoveryStats summarizes one journal replay for logs and /metrics.
type RecoveryStats struct {
	// SnapshotFleets is how many fleets the snapshot restored.
	SnapshotFleets int
	// SnapshotBytes is the snapshot's size and SnapshotDecode how long
	// decoding it took — the part of Elapsed that grows with the series
	// the fleets retain rather than with the journal's length.
	SnapshotBytes  int
	SnapshotDecode time.Duration
	// Fleets is the registry size after the full replay.
	Fleets int
	// Windows, Advances and Rearms count replayed journal records.
	Windows  int
	Advances int
	Rearms   int
	// Healed counts pending triggers re-armed by the self-heal rule: a
	// journaled trigger whose outcome (advance or rearm) never made the
	// journal before the crash.
	Healed int
	// TornTail reports the journal ended in a truncated partial record.
	TornTail bool
	// Records counts the journal records replayed after the snapshot.
	Records int
	// Elapsed is how long the replay took, wall clock, from the snapshot
	// file having been read to the reconcile loops being started.
	Elapsed time.Duration
	// JournalRead is the time before that: reading and checksumming the
	// snapshot file.
	JournalRead time.Duration
	// RecordsDecode is the time spent reading and checksumming each
	// record's frame and decoding it with decodeRecord, summed over the
	// helpers and the apply loop: what the records cost, where Elapsed says
	// how long the daemon waited for it.
	RecordsDecode time.Duration
}

// journaled is the proof that a control-plane mutation's record is in the
// journal: appendPayload returns one, and every apply function takes one,
// so a path that applies a mutation before journaling it does not compile.
// Only appendPayload and replay make one (TestJournaledTokenSources); a
// token that came with an error is not one.
type journaled struct{}

// appendRecord journals one control-plane mutation, marshalled as
// RecordWire. A nil journal (no state dir) accepts everything: the
// in-memory server behaves exactly as before durability existed.
func (s *Server) appendRecord(rec *RecordWire) (tok journaled, err error) {
	if s.jl == nil {
		return s.appendPayload()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return tok, err
	}
	return s.appendPayload(b)
}

// appendPayload journals one record already in RecordWire's encoding,
// whole or in the parts the journal frames it from: appendRecord's, or a
// window record its handler put together around the received bytes
// (windowHead, the span, windowTail). The in-memory server has no journal,
// so its token is free.
func (s *Server) appendPayload(parts ...[]byte) (journaled, error) {
	if s.jl == nil {
		return journaled{}, nil
	}
	_, err := s.jl.Append(parts...)
	return journaled{}, err
}

// jitterDuration returns a uniformly random duration in [0, d).
func jitterDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d)))
}

// restoreSession rebuilds one fleet session from its registration
// request and durable incumbent, without solving. Shared by snapshot
// restore and RegisterRecord replay; the reconcile loop is started by
// the caller once the whole journal has replayed.
func restoreSession(req *RegisterRequest, inc *kairos.Incumbent) (*session, error) {
	if req == nil || req.ID == "" {
		return nil, fmt.Errorf("registration record has no request")
	}
	if inc == nil {
		return nil, fmt.Errorf("fleet %q journaled without an incumbent", req.ID)
	}
	sess, err := buildSession(req)
	if err != nil {
		return nil, fmt.Errorf("fleet %q: %w", req.ID, err)
	}
	if _, err := sess.fleet.AdoptIncumbent(inc); err != nil {
		return nil, fmt.Errorf("fleet %q incumbent: %w", req.ID, err)
	}
	return sess, nil
}

// replay rebuilds the registry from the journal rd reads, installs the
// journal for appends after its last record, then starts the reconcile
// loops. It runs inside Open, before the HTTP surface accepts traffic
// (Handler answers 503 while s.recovering), but still holds s.mu — for
// everything except the wait for the next decoded record — so the
// registry writes satisfy the lock contract the live paths rely on.
// Records referencing unknown fleets — possible after a snapshot
// compacted away their registration and deregistration — are skipped;
// structurally invalid records are fatal (they can only mean a software
// bug, the CRC already vouched for the bytes).
func (s *Server) replay(rd *journal.Reader) (*RecoveryStats, error) {
	start := time.Now()
	ahead := startDecodeAhead(rd)
	defer ahead.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	read := journaled{} // every record replay applies, the snapshot's too, was read back from the journal
	stats := &RecoveryStats{}

	if len(rd.Snapshot) > 0 {
		decodeStart := time.Now()
		snap, err := decodeSnapshot(rd.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("decoding snapshot: %w", err)
		}
		stats.SnapshotBytes = len(rd.Snapshot)
		stats.SnapshotDecode = time.Since(decodeStart)
		for i := range snap.Fleets {
			fs := &snap.Fleets[i]
			sess, err := restoreSession(fs.Request, fs.Incumbent)
			if err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
			if fs.Detector.Windows > 0 || len(fs.History) > 0 {
				cp := &kairos.FleetCheckpoint{
					Incumbent: fs.Incumbent,
					Windows:   fs.Detector.Windows,
					Armed:     fs.Detector.Armed,
					Cooldown:  fs.Detector.Cooldown,
				}
				if len(fs.Baseline) > 0 {
					if cp.Baseline, err = toWorkloads(fs.Baseline, sess.needDisk); err != nil {
						return nil, fmt.Errorf("snapshot fleet %q baseline: %w", sess.id, err)
					}
				}
				if cp.History, err = toHistory(fs.History, sess.needDisk); err != nil {
					return nil, fmt.Errorf("snapshot fleet %q: %w", sess.id, err)
				}
				if err := sess.fleet.RestoreWatch(cp); err != nil {
					return nil, fmt.Errorf("snapshot fleet %q watch state: %w", sess.id, err)
				}
			}
			sess.mu.Lock()
			sess.events = append(sess.events, fs.Events...)
			for _, a := range fs.Acks {
				if _, ok := sess.acks[a.StartUnix]; !ok {
					sess.ackOrder = append(sess.ackOrder, a.StartUnix)
				}
				sess.acks[a.StartUnix] = a
			}
			sess.failures = fs.Failures
			sess.mu.Unlock()
			s.applyRegisterLocked(read, sess)
		}
		stats.SnapshotFleets = len(snap.Fleets)
	}

	// heal settles a pending trigger — a replayed window that fired with no
	// journaled outcome. Live, the outcome record (advance or rearm)
	// immediately follows its window; a crash between the two appends
	// leaves the trigger dangling, and it re-arms so the drift fires again.
	heal := func(sess *session) {
		sess.mu.Lock()
		pending := sess.pending
		sess.mu.Unlock()
		if pending {
			sess.applyRearm(read)
			stats.Healed++
		}
	}
	for ; ; stats.Records++ {
		// Reading and decoding, or waiting for a helper's, is the one thing
		// replay does without s.mu: a lock is not held across a channel
		// receive, and neither touches what it guards.
		s.mu.Unlock()
		d := ahead.take(stats.Records)
		s.mu.Lock()
		stats.RecordsDecode += d.took
		if d.end {
			if d.err != nil {
				return nil, d.err
			}
			break
		}
		if d.err != nil {
			return nil, fmt.Errorf("decoding journal record %d: %w", d.seq, d.err)
		}
		rw := d.rw
		switch {
		case rw.Register != nil:
			sess, err := restoreSession(rw.Register.Request, rw.Register.Incumbent)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", d.seq, err)
			}
			s.applyRegisterLocked(read, sess)
		case rw.Window != nil:
			id := rw.Window.Fleet
			sess := s.fleets[id]
			if sess == nil {
				s.logf("journal record %d: window for unknown fleet %q skipped", d.seq, id)
				continue
			}
			heal(sess)
			// The live server journaled before validating against the
			// session; a window it went on to reject replays as rejected.
			window, err := toWorkloads(rw.Window.Workloads, sess.needDisk)
			if err == nil {
				_, _, err = sess.applyWindow(read, window, windowKey(rw.Window.Workloads))
			}
			if err != nil {
				s.logf("journal record %d: window for %q rejected on replay (as live): %v", d.seq, id, err)
				continue
			}
			stats.Windows++
		case rw.Advance != nil:
			id := rw.Advance.Fleet
			sess := s.fleets[id]
			if sess == nil {
				s.logf("journal record %d: advance for unknown fleet %q skipped", d.seq, id)
				continue
			}
			if err := sess.applyAdvance(read, rw.Advance, nil); err != nil {
				return nil, fmt.Errorf("record %d: replaying advance for %q: %w", d.seq, id, err)
			}
			stats.Advances++
		case rw.Rearm != nil:
			if sess := s.fleets[rw.Rearm.Fleet]; sess != nil {
				sess.applyRearm(read)
				stats.Rearms++
			}
		case rw.Deregister != nil:
			s.applyDeregisterLocked(read, rw.Deregister.Fleet)
		default:
			return nil, fmt.Errorf("journal record %d has no operation", d.seq)
		}
	}

	// The end of the log has been taken, so no worker reads rd again.
	l, err := rd.Log()
	if err != nil {
		return nil, err
	}
	s.jl = l
	if stats.TornTail = rd.TornTail; rd.TornTail {
		s.logf("journal tail torn at byte %d: truncated (last records were never acked)", rd.TornOffset)
	}

	stats.Fleets = len(s.fleets)
	for _, sess := range s.fleets {
		heal(sess)
		s.startLocked(sess)
	}
	s.met.setFleets(len(s.fleets))
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// decodeAheadPerWorker bounds the decode stage's look-ahead: at most this
// many records per decoder, the apply loop counted, are decoded (or being
// decoded) and not yet applied. Two keeps every helper busy while the
// apply loop works through a record; more only holds more decoded windows
// in memory.
const decodeAheadPerWorker = 2

// decodeAhead is replay's decode stage: workers reading journal records
// and decoding them ahead of the loop that applies them. A claim reads the
// next frame into the worker's buffer under mu and decodes it outside, and
// goes to its record's slot. A worker claims only with a token from room,
// of which there is one per record the look-ahead bound admits: the apply
// loop hands back a record's token once it has applied it. The applying
// goroutine drives it — take(i) returns record i decoded, claiming records
// itself while it would otherwise wait — and stop joins the helpers.
// Without a free slot there are no helpers, and take reads and decodes
// every record in the loop.
type decodeAhead struct {
	// mu is the reader's lock: a claim holds it while it reads a frame.
	mu   sync.Mutex
	rd   *journal.Reader // guarded by mu
	next int             // index of the next record to read (guarded by mu)
	done bool            // the log has ended: nothing left to claim (guarded by mu)
	// room holds a token per record the workers may claim.
	room chan struct{}
	// slots[i%len(slots)] receives record i's result from the worker that
	// claimed it, or the end of the log. The records claimed and not yet
	// taken are at most len(slots) consecutive indices, so each has a slot
	// to itself and a send never blocks.
	slots []chan decodedRecord
	// buf is the apply loop's payload buffer; each helper has its own.
	buf []byte
	// buffers counts the payload buffers the workers made: one each, unless
	// a record outgrew one (TestReplayReadsOneRecordPerWorker's measure).
	buffers atomic.Int64
	quit    chan struct{}
	wg      sync.WaitGroup
}

// decodedRecord is what reading and decoding one record made of it.
type decodedRecord struct {
	seq  uint64
	rw   *RecordWire
	err  error
	took time.Duration
	// end marks the end of the log, no record: err is the read error that
	// ended it, if one did.
	end bool
}

// startDecodeAhead starts a helper per slot the CPU budget has free, each
// claiming records from rd until the log ends.
func startDecodeAhead(rd *journal.Reader) *decodeAhead {
	helpers := cpu.Take(runtime.GOMAXPROCS(0))
	a := &decodeAhead{
		rd:    rd,
		room:  make(chan struct{}, decodeAheadPerWorker*(helpers+1)),
		slots: make([]chan decodedRecord, decodeAheadPerWorker*(helpers+1)),
		quit:  make(chan struct{}),
	}
	for i := range a.slots {
		a.slots[i] = make(chan decodedRecord, 1)
		a.room <- struct{}{}
	}
	a.wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer a.wg.Done()
			defer cpu.Release()
			var buf []byte
			for {
				select {
				case <-a.room:
				case <-a.quit:
					return
				}
				if !a.claim(&buf) {
					return
				}
			}
		}()
	}
	return a
}

// claim reads the next record into *buf, decodes it and delivers it to
// its slot, spending a token the caller took from room. It reports false,
// claiming nothing, once the log has ended.
func (a *decodeAhead) claim(buf *[]byte) bool {
	a.mu.Lock()
	if a.done {
		a.mu.Unlock()
		return false
	}
	start := time.Now()
	i := a.next
	rec, err := a.rd.Next(*buf)
	if err != nil {
		a.done = true
		a.mu.Unlock()
		if err == io.EOF {
			err = nil
		}
		a.slots[i%len(a.slots)] <- decodedRecord{err: err, took: time.Since(start), end: true}
		return false
	}
	a.next++
	a.mu.Unlock()
	if cap(*buf) == 0 || &(*buf)[:1][0] != &rec.Payload[0] {
		a.buffers.Add(1)
	}
	*buf = rec.Payload
	rw, err := decodeRecord(rec.Payload)
	a.slots[i%len(a.slots)] <- decodedRecord{seq: rec.Seq, rw: rw, err: err, took: time.Since(start)}
	return true
}

// take returns record i decoded, or the end of the log. Records must be
// taken in order, each once, and record i − 1 must have been applied.
func (a *decodeAhead) take(i int) decodedRecord {
	if i > 0 {
		a.room <- struct{}{} // record i − 1's token
	}
	slot := a.slots[i%len(a.slots)]
	for room := a.room; ; {
		select {
		case d := <-slot:
			return d
		default:
		}
		select {
		case d := <-slot:
			return d
		case <-room:
			if !a.claim(&a.buf) {
				room = nil
			}
		}
	}
}

// stop ends the decode stage: the helpers finish the record they are
// decoding — results nobody takes — and exit.
func (a *decodeAhead) stop() {
	close(a.quit)
	a.wg.Wait()
}

// maybeSnapshot compacts the journal into a snapshot once enough windows
// have been ingested since the last one. Called by reconcile loops after
// releasing the snapshot read-lock; a failed snapshot is logged and
// retried after the next window (the journal keeps growing but loses
// nothing).
func (s *Server) maybeSnapshot() {
	if s.jl == nil {
		return
	}
	if s.sinceSnap.Add(1) < s.snapEvery {
		return
	}
	if err := s.snapshot(); err != nil {
		s.logf("snapshot failed (journal retained, will retry): %v", err)
	}
}

// snapshot checkpoints every fleet under the snapshot write-lock and
// hands the marshalled registry to the journal, which swaps it in and
// truncates the replayed prefix. Every mutation appends and applies under
// the read side, so the snapshot observes no record between its append
// and its effects, and rotates away none whose effect it did not copy.
func (s *Server) snapshot() error {
	s.pauseRW.Lock()
	defer s.pauseRW.Unlock()
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.fleets))
	for _, sess := range s.fleets {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	// Deterministic order keeps snapshots byte-comparable across runs.
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	snap := SnapshotWire{Fleets: make([]FleetSnapshot, 0, len(sessions))}
	for _, sess := range sessions {
		cp := sess.fleet.Checkpoint()
		fs := FleetSnapshot{
			Request:   sess.req,
			Incumbent: cp.Incumbent,
			Baseline:  fromWorkloads(cp.Baseline),
			History:   fromHistory(cp.History),
			Detector:  DetectorWire{Windows: cp.Windows, Armed: cp.Armed, Cooldown: cp.Cooldown},
		}
		sess.mu.Lock()
		fs.Events = append([]*EventWire(nil), sess.events...)
		for _, k := range sess.ackOrder {
			fs.Acks = append(fs.Acks, sess.acks[k])
		}
		fs.Failures = sess.failures
		sess.mu.Unlock()
		snap.Fleets = append(snap.Fleets, fs)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := s.jl.Snapshot(b); err != nil {
		return err
	}
	s.sinceSnap.Store(0)
	return nil
}
