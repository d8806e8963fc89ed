package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kairos"
	"kairos/internal/cpu"
	"kairos/internal/journal"
)

// maxBodyBytes caps every /v1/ request body (http.MaxBytesReader): a
// hostile or broken collector posting an unbounded JSON stream gets a 413
// instead of OOMing the daemon. Sixteen MiB holds a multi-thousand-server
// observation window with week-long series.
const maxBodyBytes = 16 << 20

// ackRingSize bounds the per-fleet idempotent-ingest ring: the acks of the
// most recent stamped windows, kept for collector retries. A resend of an
// older window is consumed again.
const ackRingSize = 512

// DefaultSnapshotEvery is how many ingested windows a durable server
// journals between snapshots when its Config names no other count.
const DefaultSnapshotEvery = 256

// Config configures a control plane for Open.
type Config struct {
	// Logf receives one line per lifecycle event (register, trigger,
	// deregister, recovery); nil discards them.
	Logf func(format string, args ...any)
	// StateDir enables durability: every control-plane mutation is
	// journaled there before it is acked or published, and Open replays
	// snapshot + journal to rebuild the registry. Empty runs in-memory,
	// exactly as a server without durability always has.
	StateDir string
	// Journal tunes the write-ahead log (fsync policy, test fault
	// injection). Ignored without StateDir.
	Journal journal.Options
	// SnapshotEvery compacts the journal into a snapshot after this many
	// ingested windows (0 = DefaultSnapshotEvery).
	SnapshotEvery int
}

// backoffBase and backoffCap bound the exponential backoff a fleet applies
// after a failed re-solve. Windows arriving during backoff are monitored
// but never trigger a solve.
const (
	backoffBase = time.Second
	backoffCap  = 60 * time.Second
)

// Server is the control plane state: the fleet registry, the metrics
// registry, and (with a state dir) the durability journal. Create it with
// Open (or New for a pure in-memory plane), mount Handler on an
// http.Server, and Close it on shutdown — Close ends every fleet's
// context, waits for the windows being applied, and snapshots the journal.
type Server struct {
	mu     sync.Mutex
	fleets map[string]*session // guarded by mu
	closed bool                // guarded by mu

	// ctx is the parent of every fleet's context; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mux  *http.ServeMux
	logf func(format string, args ...any)

	// jl is the durability journal; nil without a state dir.
	jl *journal.Log
	// pauseRW quiesces mutations for snapshots: a window handler holds the
	// read side across the window's journal-append + apply, and
	// registration and deregistration across their append + apply, so the
	// write side observes no record between its append and its effects.
	// Lock order: pauseRW → mu → the journal's.
	pauseRW sync.RWMutex
	// recovery summarizes the last replay for /metrics; nil without a
	// state dir.
	recovery *RecoveryStats
	// sinceSnap counts ingested windows since the last snapshot.
	sinceSnap atomic.Int64
	snapEvery int64
	// live counts the window and registration requests in flight (hold).
	live atomic.Int64
	// bodies is the free list of request-body buffers readBody reads into,
	// so a steady stream of windows reuses the buffers of the requests
	// before it. It keeps GOMAXPROCS + 1: one for each window the cores can
	// decode at once, which a window waiting for its fleet's turn does too,
	// and one for a window that has decoded and waits; more would only pin
	// idle megabytes. A channel, not a sync.Pool: the
	// GC empties a pool, and a buffer re-made at random would make the
	// bytes an ingest costs a number that does not repeat.
	bodies chan []byte
}

// session is one registered fleet: the library session handle, the turn
// its windows take one at a time, and the server-side state beside it — the
// ledger (event log, idempotent-ingest ring, failure streak and backoff)
// and the fleet's /metrics counters. It keeps no copy of what the fleet or
// its registration request holds: names and counts are read from those.
type session struct {
	id       string
	req      *RegisterRequest // registration request, reissued in snapshots
	fleet    *kairos.Fleet
	needDisk bool
	// recordHead is the head of the fleet's window records (windowHead).
	recordHead []byte
	// turn is the fleet's lock, taken by sending into its one slot: a window
	// handler holds it while it journals and applies the window, so windows
	// apply in one serial order and re-solves never overlap. It is
	// the one writer kairos.Fleet asks its caller for. A channel, so that a
	// window waiting for it also watches ctx and its collector.
	turn chan struct{}
	// ctx rides into the fleet's re-solves. It derives from the server's,
	// and deregistering the fleet cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	// The ledger has one writer at a time and needs no lock: the holder of
	// the turn (processWindow, which also holds pauseRW's read side), or,
	// while no window applies, replay (before the HTTP surface opens) and
	// snapshotPaused (under pauseRW's write side).
	//
	// events is the fleet's re-consolidation event log in wire form,
	// server-owned so recovery can restore it from the journal without
	// reconstructing library event objects. The writer appends to it and
	// publishes the longer slice, so readers load it without the turn.
	events atomic.Pointer[[]*EventWire]
	// acks is the idempotent-ingest ring in the form a snapshot writes it:
	// the original acknowledgements of the last ackRingSize stamped windows,
	// in arrival order. Snapshots write it and replay restores it as it is.
	acks []AckWire
	// failures counts consecutive failed re-solves (/metrics reads it);
	// backoffUntil is when the fleet may solve again.
	failures     atomic.Int64
	backoffUntil time.Time
	// met is the fleet's /metrics counters.
	met fleetMetrics
}

// ingestResp is processWindow's acknowledgement of one window.
type ingestResp struct {
	window    int
	triggered bool
	event     *EventWire
	// duplicate marks an idempotent resend answered from the ack ring.
	duplicate bool
	// journalErr reports that the window, or the advance it led to, could
	// not be made durable: the client must retry (503). A refused window
	// was not applied; a refused advance was not committed.
	journalErr error
	// bad is why the window's body was refused (400): it does not decode,
	// or its workloads do not convert.
	bad error
	// fault is a decoder panic caught on the window's decode (500).
	fault *decodePanic
	err   error
}

// errResend refuses the record of a window the ack ring already holds,
// and errSpanMoved that of a window whose span is not the guessed one.
var (
	errResend    = errors.New("window already acked")
	errSpanMoved = errors.New("window span is not the guessed one")
)

// New creates a pure in-memory control plane (no state dir). logf
// receives one line per lifecycle event; nil discards them.
func New(logf func(format string, args ...any)) *Server {
	s, err := Open(Config{Logf: logf})
	if err != nil {
		// Unreachable: only journal recovery can fail, and New opens none.
		panic(err)
	}
	return s
}

// Open creates a control plane from cfg. With a state dir it opens the
// journal, replays snapshot + journal to rebuild every registered fleet
// — incumbents, detector state, event logs, ack rings — and only then
// returns, so no request can reach Handler before the replay ends. A torn
// journal tail is truncated and logged, never fatal; a
// corrupt snapshot is fatal (see the journal package).
func Open(cfg Config) (*Server, error) {
	//kairoslint:allow ctxflow: control-plane root context; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		fleets:    map[string]*session{},
		ctx:       ctx,
		cancel:    cancel,
		logf:      cfg.Logf,
		snapEvery: int64(cfg.SnapshotEvery),
		bodies:    make(chan []byte, runtime.GOMAXPROCS(0)+1),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if s.snapEvery <= 0 {
		s.snapEvery = DefaultSnapshotEvery
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleets", s.handleRegister)
	mux.HandleFunc("GET /v1/fleets", s.handleList)
	mux.HandleFunc("GET /v1/fleets/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/fleets/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/fleets/{id}/windows", s.handleWindow)
	mux.HandleFunc("GET /v1/fleets/{id}/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/fleets/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux = mux

	if cfg.StateDir != "" {
		readStart := time.Now()
		rd, err := journal.OpenReader(cfg.StateDir, cfg.Journal)
		if err != nil {
			cancel()
			return nil, err
		}
		journalRead := time.Since(readStart)
		stats, err := s.replay(rd)
		if err != nil {
			err = errors.Join(err, rd.Close())
			cancel()
			return nil, fmt.Errorf("server: recovering from %s: %w", cfg.StateDir, err)
		}
		stats.JournalRead = journalRead
		s.recovery = stats
		if stats.Fleets > 0 || stats.Windows > 0 || stats.TornTail {
			s.logf("recovered %d fleets from %s: %d windows, %d advances, %d rearms replayed (torn tail: %v) in %v; snapshot file read in %v, %d-byte snapshot decoded in %v; %d records read and decoded in %v across the decode workers",
				stats.Fleets, cfg.StateDir, stats.Windows, stats.Advances, stats.Rearms, stats.TornTail, stats.Elapsed,
				stats.JournalRead, stats.SnapshotBytes, stats.SnapshotDecode, stats.Records, stats.RecordsDecode)
		}
	}
	return s, nil
}

// Handler returns the HTTP handler serving the /v1/ API and /metrics.
// It bounds every /v1/ request body.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/") {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Close ends every fleet's context, which aborts the re-solves in flight,
// waits for the windows being applied, then snapshots and closes the
// journal. The server rejects new work afterwards; windows in flight are
// answered with a shutdown error.
func (s *Server) Close() error {
	return s.close(true)
}

// Kill is Close without the graceful snapshot or journal flush attempt —
// the crash-matrix tests' SIGKILL analogue: whatever the journal holds
// is what recovery gets.
func (s *Server) Kill() error {
	return s.close(false)
}

// close implements Close/Kill. Callers hold no locks.
func (s *Server) close(snapshot bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// A window journals and applies under the snapshot read-lock, and only
	// while its fleet's context lives: once the write side is taken, no
	// window is applying and none will.
	s.cancel()
	s.pauseRW.Lock()
	defer s.pauseRW.Unlock()
	if s.jl == nil {
		return nil
	}
	if snapshot {
		// Best effort: a failed shutdown snapshot just means the next
		// start replays the journal instead.
		if err := s.snapshotPaused(); err != nil {
			s.logf("shutdown snapshot failed (journal replay will recover): %v", err)
		}
	}
	return s.jl.Close()
}

// writeJSON writes v as a JSON response with the given status. A JSON
// body is how mutations are acknowledged to clients: a handler that
// journals writes it after the apply, and so after the append the apply's
// token came from.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //kairoslint:allow errflow: status already committed; an encode failure only truncates the body, which the client sees
}

// writeNoContent acknowledges a mutation that has no response body.
func writeNoContent(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNoContent)
}

// writeErr writes an ErrorResponse.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeUnavailable writes a 503 with a Retry-After header: every
// retryable condition (shutdown, an aborted solve, journal unavailable) tells
// the collector when to resend. Resent windows are idempotent — ingest
// is keyed by window start time, so a retry of an already-acked window
// returns the original ack.
func writeUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, format, args...)
}

// writeDecodeErr maps a request-body decode failure: an oversized body
// (http.MaxBytesReader tripped) is 413, anything else 400.
func writeDecodeErr(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge, "decoding %s: body exceeds %d bytes", what, mbe.Limit)
		return
	}
	var fault *decodePanic
	if errors.As(err, &fault) {
		writeErr(w, http.StatusInternalServerError, "decoding %s: %v", what, err)
		return
	}
	writeErr(w, http.StatusBadRequest, "decoding %s: %v", what, err)
}

// readBody reads a request body in full, behind the http.MaxBytesReader
// Handler installed: an oversized body is a *http.MaxBytesError however
// it is framed. The buffer is one from the free list when it has room for
// the Content-Length the client sent, and otherwise made that size, never
// past the cap. The body belongs to the server until the handler has
// replied; then putBody gives it to a later request.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	size := r.ContentLength
	if size < 0 || size > maxBodyBytes {
		size = 0
	}
	var buf []byte
	select {
	case buf = <-s.bodies:
	default:
	}
	// ReadFrom wants bytes.MinRead of room to see the EOF without growing.
	if int64(cap(buf)) < size+bytes.MinRead {
		buf = make([]byte, 0, size+bytes.MinRead)
	}
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(r.Body)
	return b.Bytes(), err
}

// putBody returns a body readBody read to the free list, or drops it when
// the list is full. Nothing may read it afterwards: the next request is
// read into it.
func (s *Server) putBody(body []byte) {
	select {
	case s.bodies <- body[:0]:
	default:
	}
}

// lookup finds a registered session, or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.fleets[id]
	s.mu.Unlock()
	if sess == nil {
		writeErr(w, http.StatusNotFound, "unknown fleet %q", id)
		return nil
	}
	return sess
}

// handleRegister is POST /v1/fleets: validate the spec, run the initial
// consolidation synchronously (the response carries the plan summary),
// and commit the session to the registry.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	s.live.Add(1)
	defer s.live.Add(-1)
	body, err := s.readBody(r)
	// Nothing decoded from a registration aliases its body (windowdec.go).
	defer s.putBody(body)
	if err != nil {
		writeDecodeErr(w, "register request", err)
		return
	}
	defer s.hold()()
	req, err := decodeRegister(body)
	if err != nil {
		writeDecodeErr(w, "register request", err)
		return
	}
	if err := checkRegister(req); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	_, exists := s.fleets[req.ID]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeUnavailable(w, "server shutting down")
		return
	}
	if exists {
		writeErr(w, http.StatusConflict, "fleet %q already registered", req.ID)
		return
	}
	sess, err := buildSession(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The initial solve runs in the request: registration returns the plan
	// it will serve, and a spec the solver rejects never enters the
	// registry. The solve aborts when the server shuts down (s.ctx) or the
	// client goes away (r.Context()).
	solveCtx, solveCancel := context.WithCancel(s.ctx)
	stopAfter := context.AfterFunc(r.Context(), solveCancel)
	plan, err := sess.fleet.Consolidate(solveCtx)
	stopAfter()
	solveCancel()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			writeUnavailable(w, "consolidation aborted: %v", err)
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, "initial consolidation failed: %v", err)
		return
	}

	// Journal the registration before committing it: a fleet the registry
	// serves is a fleet recovery can rebuild. Both run under the snapshot
	// read-lock, or a snapshot could copy the registry without the fleet and
	// then rotate its record away.
	s.pauseRW.RLock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.pauseRW.RUnlock()
		writeUnavailable(w, "server shutting down")
		return
	}
	if _, raced := s.fleets[req.ID]; raced {
		s.mu.Unlock()
		s.pauseRW.RUnlock()
		writeErr(w, http.StatusConflict, "fleet %q already registered", req.ID)
		return
	}
	tok, err := s.appendRecord(&RecordWire{Register: &RegisterRecord{
		Request: req, Incumbent: plan.Incumbent(),
	}})
	if err != nil {
		s.mu.Unlock()
		s.pauseRW.RUnlock()
		writeUnavailable(w, "journaling registration: %v", err)
		return
	}
	s.applyRegisterLocked(tok, sess)
	s.mu.Unlock()
	s.pauseRW.RUnlock()
	s.logf("fleet %q registered: %d workloads -> K=%d (feasible=%v)",
		req.ID, len(req.Workloads), plan.K, plan.Feasible)
	writeJSON(w, http.StatusCreated, s.status(sess))
}

// buildSession turns a registration request into a session around a fresh
// library Fleet, with no plan yet: handleRegister goes on to Consolidate
// it, recovery to restore the journaled plan.
func buildSession(req *RegisterRequest) (*session, error) {
	dp, err := toDiskProfile(req.DiskProfile)
	if err != nil {
		return nil, fmt.Errorf("disk_profile: %w", err)
	}
	machines, err := toMachines(req)
	if err != nil {
		return nil, err
	}
	workloads, err := toWorkloads(req.Workloads, dp != nil)
	if err != nil {
		return nil, err
	}
	if err := uniqueNames(workloads); err != nil {
		return nil, err
	}
	head, err := windowHead(req.ID)
	if err != nil {
		return nil, err
	}
	fleet, err := kairos.NewFleet(
		kairos.FleetSpec{Name: req.ID, Workloads: workloads, Machines: machines, Disk: dp},
		toFleetOptions(req.Options)...)
	if err != nil {
		return nil, fmt.Errorf("invalid fleet spec: %w", err)
	}
	sess := &session{
		id:         req.ID,
		req:        req,
		fleet:      fleet,
		needDisk:   dp != nil,
		recordHead: head,
		turn:       make(chan struct{}, 1),
	}
	sess.events.Store(&[]*EventWire{})
	return sess, nil
}

// applyRegisterLocked and applyDeregisterLocked apply a register and a
// deregister record to the registry: a registered fleet's context derives
// from the server's, and deregistering it ends the context. Callers hold
// s.mu.
func (s *Server) applyRegisterLocked(_ journaled, sess *session) {
	sess.ctx, sess.cancel = context.WithCancel(s.ctx)
	s.fleets[sess.id] = sess
}

func (s *Server) applyDeregisterLocked(_ journaled, id string) {
	if sess := s.fleets[id]; sess != nil {
		sess.cancel()
		delete(s.fleets, id)
	}
}

// uniqueNames enforces the name-matching contract windows rely on.
func uniqueNames(wls []kairos.Workload) error {
	seen := make(map[string]bool, len(wls))
	for _, w := range wls {
		if seen[w.Name] {
			return fmt.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	return nil
}

// windowKey is the idempotency key of an ingested window: the start time
// of its first series. Zero (collectors that do not timestamp windows)
// disables deduplication for that window.
func windowKey(wire []WorkloadWire) int64 {
	if len(wire) == 0 {
		return 0
	}
	return wire[0].StartUnix
}

// windowDecode is a window's decode, run on a goroutine of its own from
// the moment its body arrives (startDecode), so that a window waiting for
// its fleet's turn decodes meanwhile. Its fields are written before done
// closes and read after.
type windowDecode struct {
	done   chan struct{}
	window []kairos.Workload
	key    int64
	span   []byte
	// bad is why the body was refused (400): it does not decode, or its
	// workloads do not convert.
	bad error
	// fault is a panic of the decoder or the conversion, which the
	// goroutine recovers: a bug costs the window a 500, not the process.
	fault *decodePanic
}

// startDecode starts decoding and converting body. The handler that owns
// body waits for the decode to end (wait) before it gives body back.
func startDecode(body []byte, needDisk bool) *windowDecode {
	d := &windowDecode{done: make(chan struct{})}
	go func() {
		defer close(d.done)
		defer func() {
			if v := recover(); v != nil {
				d.window, d.bad, d.fault = nil, nil, newDecodePanic(v)
			}
		}()
		if decodeHook != nil {
			decodeHook(false)
		}
		wire, span, err := decodeWindow(body)
		if errors.As(err, &d.fault) {
			return
		}
		if err != nil {
			d.bad = fmt.Errorf("decoding window: %w", err)
			return
		}
		if d.window, d.bad = toWorkloads(wire, needDisk); d.bad == nil {
			d.key, d.span = windowKey(wire), span
		}
	}()
	return d
}

// wait returns once the decode has ended.
func (d *windowDecode) wait() { <-d.done }

// finished reports whether the decode has ended.
func (d *windowDecode) finished() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// processWindow ingests one observation window: dedupe against the ack
// ring, journal it, apply it, and — if it fired a trigger the solver
// answers — journal the advance and apply that. Each apply is the function
// replay calls for the same record. A trigger that backoff holds back,
// whose re-solve fails or whose advance the journal refuses commits
// nothing and needs no record. The window has been decoding since its body
// arrived (dec). A window that waited for the turn (waited) and has
// decoded meanwhile is journaled around its decoded span. One that is
// still decoding, and whose span guessSpan can guess, goes on decoding
// while the journal writes the record framed around the guess. That record
// commits only if the window decodes, is no resend and its span is the
// guess, so a refused body or a resend leaves the journal as it was, and a
// window whose span moved is journaled around its span once it is known,
// as a window with no guess is. The caller holds the fleet's turn and the
// snapshot read-lock, so no snapshot sees a window without its advance.
func (s *Server) processWindow(ctx context.Context, sess *session, body []byte, dec *windowDecode, waited bool) ingestResp {
	// admit is what a window must pass to be journaled: it decodes and
	// converts, and it is no resend — a window already acked under its
	// start-time key returns its original acknowledgement without being
	// re-applied. The scan starts at the newest ack, the one a retry most
	// likely wants. It runs once.
	var refusal *ingestResp
	admit := func() error {
		dec.wait()
		if dec.fault != nil {
			refusal = &ingestResp{fault: dec.fault}
			return dec.fault
		}
		if dec.bad != nil {
			refusal = &ingestResp{bad: dec.bad}
			return dec.bad
		}
		for i := len(sess.acks) - 1; i >= 0; i-- {
			if ack := sess.acks[i]; ack.StartUnix == dec.key {
				refusal = &ingestResp{window: ack.Window, triggered: ack.Triggered, duplicate: true}
				return errResend
			}
		}
		return nil
	}
	// Journal before applying: a window the client sees acked must exist
	// in the journal, or a crash would silently drop it. A failed append
	// refuses the window entirely (retryable 503) — nothing was applied.
	var guess []byte
	if waited && dec.finished() {
		sess.met.decodedWaiting.Add(1)
	} else {
		guess = guessSpan(body)
	}
	payload, check := guess, func() error {
		if err := admit(); err != nil {
			return err
		}
		if len(dec.span) != len(guess) || &dec.span[0] != &guess[0] {
			return errSpanMoved
		}
		return nil
	}
	if guess == nil {
		if admit() != nil {
			return *refusal
		}
		payload, check = dec.span, nil
	}
	winTok, err := s.appendPayload(check, sess.recordHead, payload, windowTail)
	if err == errSpanMoved {
		winTok, err = s.appendPayload(nil, sess.recordHead, dec.span, windowTail)
	}
	switch {
	case refusal != nil:
		return *refusal
	case err != nil:
		return ingestResp{journalErr: fmt.Errorf("journaling window: %w", err)}
	}
	index, fired, err := sess.applyWindow(winTok, dec.window, dec.key)
	if err != nil || !fired {
		sess.met.observeWindow(err != nil)
		return ingestResp{window: index, err: err}
	}

	// During backoff the detector and history keep moving but nothing
	// solves. Otherwise the fleet's ctx rides into the solver: Server.Close
	// (or a deregister) aborts the re-solve mid-flight.
	var ev *kairos.ReconsolidationEvent
	if !time.Now().Before(sess.backoffUntil) {
		ev, err = sess.fleet.Resolve(ctx)
	}
	if ev == nil {
		// Suppressed or failed: nothing commits, so the drift fires again on
		// the next window.
		if err != nil && !errors.Is(err, context.Canceled) {
			n, delay := sess.bumpBackoff()
			s.logf("fleet %q: re-solve failed (%d consecutive), backing off %v: %v", sess.id, n, delay, err)
		}
		sess.met.observeWindow(err != nil)
		return ingestResp{window: index, err: err}
	}
	// Write-ahead: the advance is journaled before it commits or publishes,
	// so a recovered server never serves an older plan than a client saw.
	// A refused append commits nothing, live or on replay of the journaled
	// window, and the collector retries (503).
	rec := &AdvanceRecord{Fleet: sess.id, Incumbent: ev.Plan.Incumbent(), Event: eventWire(ev)}
	advTok, err := s.appendRecord(&RecordWire{Advance: rec})
	if err != nil {
		return ingestResp{journalErr: fmt.Errorf("journaling advance: %w", err)}
	}
	if err := sess.applyAdvance(advTok, rec, ev); err != nil {
		return ingestResp{err: fmt.Errorf("committing journaled advance: %w", err)}
	}
	sess.met.observeWindow(false)
	sess.met.observeTrigger(ev.Plan.Fevals, ev.Plan.Migrated, ev.Plan.Elapsed)
	s.logf("fleet %q: %v", sess.id, ev)
	return ingestResp{window: index, triggered: true, event: rec.Event}
}

// applyWindow applies a window record: through the drift detector into
// the forecast history (a trigger it fires commits only with an advance
// record), and onto the newest end of the idempotent-ingest ring acked as
// not triggered — only the advance record can say the plan advanced. A full
// ring drops its oldest ack, shifting the rest in place. Entering the ring
// makes resends return the ack, so the window must already be journaled.
func (sess *session) applyWindow(_ journaled, window []kairos.Workload, key int64) (index int, fired bool, err error) {
	if fired, err = sess.fleet.ObserveDetectOnly(window); err != nil {
		return 0, false, err
	}
	index = sess.fleet.Window() - 1
	if key == 0 {
		return index, fired, nil // unstamped windows are never deduplicated
	}
	if drop := len(sess.acks) - ackRingSize + 1; drop > 0 {
		sess.acks = sess.acks[:copy(sess.acks, sess.acks[drop:])]
	}
	sess.acks = append(sess.acks, AckWire{StartUnix: key, Window: index})
	return index, fired, nil
}

// applyAdvance applies an advance record: the plan advances, the event
// joins the log, the triggering window's ack now says it triggered, and the
// failure streak ends. An advance follows its window under the same turn
// and snapshot read-lock, so the window it follows is the fleet's last, and
// its ack is the newest in the ring unless the window was unstamped. Live
// passes the event it resolved, committed as it stands; replay has none
// and rebuilds the plan from the journaled incumbent — the one place the
// two differ.
func (sess *session) applyAdvance(_ journaled, rec *AdvanceRecord, ev *kairos.ReconsolidationEvent) (err error) {
	if ev != nil {
		err = sess.fleet.Advance(ev)
	} else {
		_, err = sess.fleet.ReplayAdvance(rec.Incumbent)
	}
	if err != nil {
		return err
	}
	if rec.Event != nil {
		sess.appendEvents(rec.Event)
	}
	if n := len(sess.acks); n > 0 && sess.acks[n-1].Window == sess.fleet.Window()-1 {
		sess.acks[n-1].Triggered = true
	}
	sess.failures.Store(0)
	sess.backoffUntil = time.Time{}
	return nil
}

// appendEvents appends to the event log and publishes the longer slice.
func (sess *session) appendEvents(evs ...*EventWire) {
	log := append(*sess.events.Load(), evs...)
	sess.events.Store(&log)
}

// bumpBackoff records one more consecutive solver failure and extends
// the session's backoff window exponentially (full jitter on the upper
// half, bounded by backoffCap).
func (sess *session) bumpBackoff() (int, time.Duration) {
	n := int(sess.failures.Add(1))
	d := min(backoffCap, backoffBase<<min(n-1, 20))
	// Full jitter on the upper half: concurrent fleets failing against a
	// shared cause don't re-solve in lockstep.
	d = d/2 + jitterDuration(d/2)
	sess.backoffUntil = time.Now().Add(d)
	return n, d
}

// hold is called by a window or registration handler about to decode its
// body. While another such request is in flight it holds a slot of the CPU
// budget for the rest of the handler, even one a split chunk of the other
// request has yet to give back, so a decode splits into fewer chunks. With
// two requests in flight the cores are not free while a window decodes:
// the other request reads or decodes its body, and a durable server's
// journal writes a record on a goroutine of its own. A chunk there
// contends with that work instead of running beside it; with two
// collectors at one durable fleet (steady-ingest), dropping the hold made
// the median window about 9 % slower. Re-measured once windows decoded
// before their turn, dropping it took op_p50_norm_ms 5.30 -> 5.69 ms and
// ops_per_norm_s 238 -> 220 (10 pairs). The returned func gives the slot
// back.
func (s *Server) hold() (release func()) {
	if s.live.Load() > 1 {
		cpu.Hold()
		return cpu.Release
	}
	return func() {}
}

// handleWindow is POST /v1/fleets/{id}/windows: start the window's
// decode, take the fleet's turn, journal and apply the window under it,
// and acknowledge it (including whether it triggered a re-solve).
func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	s.live.Add(1)
	defer s.live.Add(-1)
	body, err := s.readBody(r)
	// The record's span aliases the body, which goes back to the free list
	// only once the window has been decoded, journaled and answered.
	defer s.putBody(body)
	if err != nil {
		writeDecodeErr(w, "window", err)
		return
	}
	defer s.hold()()
	// The window decodes while it waits for the turn; whatever the handler
	// answers, the decode ends before the body goes back.
	dec := startDecode(body, sess.needDisk)
	defer dec.wait()
	waited := false
	select {
	case sess.turn <- struct{}{}:
	default:
		waited = true
		select {
		case sess.turn <- struct{}{}:
		case <-sess.ctx.Done():
			s.writeStopped(w, sess)
			return
		case <-r.Context().Done():
			return // the collector went away before anything was journaled
		}
	}
	// The context is checked under the snapshot read-lock: Close cancels it
	// before it takes the write side, so a window that gets the read side
	// after Close has waited for the others journals nothing.
	s.pauseRW.RLock()
	if sess.ctx.Err() != nil {
		s.pauseRW.RUnlock()
		<-sess.turn
		s.writeStopped(w, sess)
		return
	}
	resp := s.processWindow(sess.ctx, sess, body, dec, waited)
	s.pauseRW.RUnlock()
	<-sess.turn
	s.maybeSnapshot()
	switch {
	case resp.fault != nil:
		s.logf("fleet %q: window decoder panic: %v\n%s", sess.id, resp.fault, resp.fault.stack)
		writeErr(w, http.StatusInternalServerError, "decoding window: %v", resp.fault)
	case resp.bad != nil:
		writeErr(w, http.StatusBadRequest, "%v", resp.bad)
	case resp.journalErr != nil:
		// The window (or its advance) never reached the journal, so it was
		// not applied; the collector retries here or after a restart.
		writeUnavailable(w, "%v", resp.journalErr)
	case errors.Is(resp.err, context.Canceled):
		// The re-solve was aborted by shutdown or deregistration, not
		// rejected on its merits.
		writeUnavailable(w, "re-consolidation aborted: %v", resp.err)
	case resp.err != nil:
		// Valid JSON that the session rejected (unknown workload, series
		// shape mismatch, ...), or a window whose re-solve failed.
		writeErr(w, http.StatusUnprocessableEntity, "%v", resp.err)
	default:
		writeJSON(w, http.StatusOK, WindowResponse{
			Window: resp.window, Triggered: resp.triggered, Duplicate: resp.duplicate, Event: resp.event,
		})
	}
}

// writeStopped answers a window whose fleet's context has ended: 503 when
// the whole server is shutting down (retryable against a replacement), 410
// when just this fleet was deregistered.
func (s *Server) writeStopped(w http.ResponseWriter, sess *session) {
	if s.ctx.Err() != nil {
		writeUnavailable(w, "server shutting down")
		return
	}
	writeErr(w, http.StatusGone, "fleet %q deregistered", sess.id)
}

// status snapshots a session for the wire.
func (s *Server) status(sess *session) FleetStatus {
	st := FleetStatus{
		ID:        sess.id,
		Workloads: len(sess.req.Workloads),
		Machines:  len(sess.req.Machines),
	}
	if am := sess.req.AutoMachines; am != nil {
		st.Machines = am.Count
	}
	if p := sess.fleet.Plan(); p != nil {
		st.K, st.Feasible = p.K, p.Feasible
	}
	st.Windows = sess.fleet.Window()
	// Trigger counters come from the event log, which recovery restores.
	events := *sess.events.Load()
	st.Triggers, st.LastTrigger = len(events), -1
	if n := len(events); n > 0 {
		st.LastTrigger = events[n-1].Window
	}
	return st
}

// sessions lists the registered fleets in id order, the deterministic
// order of listings, scrapes and snapshots.
func (s *Server) sessions() []*session {
	s.mu.Lock()
	out := make([]*session, 0, len(s.fleets))
	for _, sess := range s.fleets {
		out = append(out, sess)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// handleList is GET /v1/fleets.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	sessions := s.sessions()
	out := make([]FleetStatus, len(sessions))
	for i, sess := range sessions {
		out[i] = s.status(sess)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus is GET /v1/fleets/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookup(w, r); sess != nil {
		writeJSON(w, http.StatusOK, s.status(sess))
	}
}

// handlePlan is GET /v1/fleets/{id}/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	p := sess.fleet.Plan()
	if p == nil {
		writeErr(w, http.StatusNotFound, "fleet %q has no plan yet", sess.id)
		return
	}
	writeJSON(w, http.StatusOK, planWire(p))
}

// handleEvents is GET /v1/fleets/{id}/events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.lookup(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK, *sess.events.Load())
}

// handleDelete is DELETE /v1/fleets/{id}: remove the fleet, end its
// context, and wait for the window that holds its turn. The fleet's
// /metrics series leave with it.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Journal the deregistration before removing it, both under the
	// snapshot read-lock, as in handleRegister: recovery must not resurrect
	// a fleet the client saw deleted. A refused append keeps the fleet
	// registered (retryable).
	s.pauseRW.RLock()
	s.mu.Lock()
	sess := s.fleets[id]
	if sess == nil {
		s.mu.Unlock()
		s.pauseRW.RUnlock()
		writeErr(w, http.StatusNotFound, "unknown fleet %q", id)
		return
	}
	tok, err := s.appendRecord(&RecordWire{Deregister: &DeregisterRecord{Fleet: id}})
	if err != nil {
		s.mu.Unlock()
		s.pauseRW.RUnlock()
		writeUnavailable(w, "journaling deregistration: %v", err)
		return
	}
	s.applyDeregisterLocked(tok, id)
	// Released before waiting for the turn: a snapshot waiting for the
	// write side holds back the read-lock of the window holding the turn.
	s.mu.Unlock()
	s.pauseRW.RUnlock()
	// The turn is taken and never given back: windows still waiting for it
	// see the ended context and answer 410.
	sess.turn <- struct{}{}
	s.logf("fleet %q deregistered", id)
	writeNoContent(w)
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeFleetMetrics(w, s.sessions())
	const slow = "kairos_wire_numbers_slow_total"
	fmt.Fprintf(w, "# HELP %s Series numbers the one-pass decoder handed to strconv (over 19 digits, half-way, subnormal or out of range).\n# TYPE %s counter\n%s %d\n", slow, slow, slow, slowNumbers.Load())
	const split = "kairos_wire_split_chunks_total"
	fmt.Fprintf(w, "# HELP %s Workloads-array chunks decoded on their own goroutine: adopted where the decode before landed on their start, discarded where it did not.\n# TYPE %s counter\n%s{outcome=\"adopted\"} %d\n%s{outcome=\"discarded\"} %d\n",
		split, split, split, splitAdopted.Load(), split, splitDiscarded.Load())
	const inUse, denied = "kairos_cpu_budget_in_use", "kairos_cpu_budget_denied_total"
	fmt.Fprintf(w, "# HELP %s CPU budget slots taken now: helpers (solver probes, climbs and shards, decode chunks; at most GOMAXPROCS - 1) and live requests held beside another.\n# TYPE %s gauge\n%s %d\n", inUse, inUse, inUse, cpu.InUse())
	fmt.Fprintf(w, "# HELP %s Helper slots asked for when none was free; the work ran on the asking goroutine.\n# TYPE %s counter\n%s %d\n", denied, denied, denied, cpu.Denied())
	if s.jl != nil {
		writeJournalMetrics(w, s.jl.Stats(), s.recovery)
	}
}
