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
// Replay is two stages. The decode stage (decodeAhead) turns a record's
// payload into a *RecordWire with decodeRecord: it reads the payload and
// nothing else, so a helper per free slot of the CPU budget runs it ahead
// of the loop, started before the snapshot is decoded so that restoring
// the snapshot on the calling goroutine overlaps the first records. The
// apply stage is the one loop in replay: it takes records strictly in
// journal order, decoding itself one no helper has taken yet, and applies
// each under s.mu, so replay equals live whatever the helper count. A
// record that does not decode fails the replay with the error the
// sequential loop gave, and only once every record before it has been
// applied; what the helpers made of later records is dropped. The
// look-ahead is bounded (decodeAheadPerWorker): a decoded window is about
// a megabyte of floats, and a journal of hundreds must not sit in memory
// twice. No goroutine outlives replay. decodeSnapshot stays one call on
// the calling goroutine: once a snapshot is itself a sequence of records
// (ROADMAP item 1 stage B) it goes through this pipeline and
// decodeSnapshot is deleted, so splitting it would be work thrown away.

import (
	"encoding/json"
	"fmt"
	"math/rand"
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
	// Elapsed is how long the replay took, wall clock, from the journal
	// handing over its records to the reconcile loops being started.
	Elapsed time.Duration
	// JournalRead is the time before that: journal.Open reading and
	// checksumming the snapshot and the log.
	JournalRead time.Duration
	// RecordsDecode is the time spent inside decodeRecord, summed over the
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

// replay rebuilds the registry from a recovered journal, then starts the
// reconcile loops. It runs inside Open, before the HTTP surface accepts
// traffic (Handler answers 503 while s.recovering), but still holds s.mu
// — for everything except the wait for the next decoded record — so the
// registry writes satisfy the lock contract the live paths rely on.
// Records referencing unknown fleets — possible after a snapshot
// compacted away their registration and deregistration — are skipped;
// structurally invalid records are fatal (they can only mean a software
// bug, the CRC already vouched for the bytes).
func (s *Server) replay(rec *journal.Recovered) (*RecoveryStats, error) {
	start := time.Now()
	ahead := startDecodeAhead(rec.Records)
	defer ahead.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	read := journaled{} // every record replay applies, the snapshot's too, was read back from the journal
	stats := &RecoveryStats{TornTail: rec.TornTail}
	if rec.TornTail {
		s.logf("journal tail torn at byte %d: truncated (last records were never acked)", rec.TornOffset)
	}

	if len(rec.Snapshot) > 0 {
		decodeStart := time.Now()
		snap, err := decodeSnapshot(rec.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("decoding snapshot: %w", err)
		}
		stats.SnapshotBytes = len(rec.Snapshot)
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
	for i, r := range rec.Records {
		// Decoding, or waiting for a helper's decode, is the one thing replay
		// does without s.mu: a lock is not held across a channel receive, and
		// decodeRecord never touches what it guards.
		s.mu.Unlock()
		rw, took, err := ahead.take(i)
		s.mu.Lock()
		stats.RecordsDecode += took
		if err != nil {
			return nil, fmt.Errorf("decoding journal record %d: %w", r.Seq, err)
		}
		switch {
		case rw.Register != nil:
			sess, err := restoreSession(rw.Register.Request, rw.Register.Incumbent)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", r.Seq, err)
			}
			s.applyRegisterLocked(read, sess)
		case rw.Window != nil:
			id := rw.Window.Fleet
			sess := s.fleets[id]
			if sess == nil {
				s.logf("journal record %d: window for unknown fleet %q skipped", r.Seq, id)
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
				s.logf("journal record %d: window for %q rejected on replay (as live): %v", r.Seq, id, err)
				continue
			}
			stats.Windows++
		case rw.Advance != nil:
			id := rw.Advance.Fleet
			sess := s.fleets[id]
			if sess == nil {
				s.logf("journal record %d: advance for unknown fleet %q skipped", r.Seq, id)
				continue
			}
			if err := sess.applyAdvance(read, rw.Advance, nil); err != nil {
				return nil, fmt.Errorf("record %d: replaying advance for %q: %w", r.Seq, id, err)
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
			return nil, fmt.Errorf("journal record %d has no operation", r.Seq)
		}
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

// decodeAhead is replay's decode stage: helpers decoding journal records
// ahead of the loop that applies them. The applying goroutine drives it —
// take(i) hands the helpers the records up to the look-ahead bound, then
// decodes record i itself if no helper has claimed it, or waits for the one
// that has — so there is no feeder to stop, and stop closes the job queue
// and joins the helpers. Without a free slot there are no helpers, and
// take decodes every record in the loop.
type decodeAhead struct {
	records []journal.Record
	// claimed[i] is set by whichever decoder, helper or apply loop, takes
	// record i: exactly one decodes it.
	claimed []atomic.Bool
	// jobs carries record indices to the helpers; nil without helpers.
	// Handing out work never blocks the apply loop: a record the queue has
	// no room for is one the loop will decode itself.
	jobs chan int
	// slots[i%len(slots)] receives record i's result from the helper that
	// claimed it. The records handed out and not yet taken are at most
	// len(slots) consecutive indices, so each has a slot to itself and a
	// helper's send never blocks.
	slots []chan decodedRecord
	// fed is the number of records handed to the helpers so far.
	fed int
	wg  sync.WaitGroup
}

// decodedRecord is what decoding one record made of it.
type decodedRecord struct {
	rw   *RecordWire
	err  error
	took time.Duration
}

// decode decodes record i.
func (a *decodeAhead) decode(i int) decodedRecord {
	start := time.Now()
	rw, err := decodeRecord(a.records[i].Payload)
	return decodedRecord{rw, err, time.Since(start)}
}

// startDecodeAhead starts a helper per slot the CPU budget has free, at
// most one per record, and hands them the first records.
func startDecodeAhead(records []journal.Record) *decodeAhead {
	helpers := cpu.Take(len(records))
	a := &decodeAhead{
		records: records,
		claimed: make([]atomic.Bool, len(records)),
		slots:   make([]chan decodedRecord, decodeAheadPerWorker*(helpers+1)),
	}
	for i := range a.slots {
		a.slots[i] = make(chan decodedRecord, 1)
	}
	if helpers == 0 {
		return a
	}
	a.jobs = make(chan int, len(a.slots))
	a.wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer a.wg.Done()
			defer cpu.Release()
			for i := range a.jobs {
				if a.claimed[i].CompareAndSwap(false, true) {
					a.slots[i%len(a.slots)] <- a.decode(i)
				}
			}
		}()
	}
	a.feed(0)
	return a
}

// feed hands the helpers every record the look-ahead bound and the queue's
// room allow while record i is the next to be applied.
func (a *decodeAhead) feed(i int) {
	for ; a.jobs != nil && a.fed < len(a.records) && a.fed < i+len(a.slots); a.fed++ {
		select {
		case a.jobs <- a.fed:
		default:
			return
		}
	}
}

// take returns record i decoded and how long decoding it took. Records
// must be taken in order, each once.
func (a *decodeAhead) take(i int) (*RecordWire, time.Duration, error) {
	a.feed(i)
	var d decodedRecord
	if a.claimed[i].CompareAndSwap(false, true) {
		d = a.decode(i)
	} else {
		d = <-a.slots[i%len(a.slots)]
	}
	return d.rw, d.took, d.err
}

// stop ends the decode stage: the helpers finish what they were handed —
// at most the look-ahead bound, results nobody takes — and exit.
func (a *decodeAhead) stop() {
	if a.jobs != nil {
		close(a.jobs)
	}
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
