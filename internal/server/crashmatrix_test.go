package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kairos/internal/journal"
)

// The crash matrix: for every io-level injection point in the journal,
// "crash" the control plane there (injected fault + kill switch, so
// nothing after the crash point persists), restart from the state
// directory, and assert the recovery invariants:
//
//  1. every window the client saw acked is replayed (a resend returns the
//     original ack as a duplicate, the window counter matches),
//  2. the recovered plan equals the last plan the crashed server served,
//  3. the drift detector does not double-fire on replayed windows (the
//     recovered event log and trigger count equal the acked ones),
//  4. the recovered server accepts new windows and can still trigger.

// openDurable starts a durable control plane over dir.
func openDurable(t *testing.T, dir string, opt journal.Options, snapEvery int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := Open(Config{StateDir: dir, Journal: opt, SnapshotEvery: snapEvery, Logf: t.Logf})
	if err != nil {
		t.Fatalf("open durable server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

// samePlacement asserts two served plans place identically: same K,
// feasibility and unit assignments. The recovered plan's bookkeeping
// (fevals, elapsed) and — after a snapshot restore — its pricing basis
// differ legitimately; the placement is the published contract.
func samePlacement(t *testing.T, label string, got, want []byte) {
	t.Helper()
	var g, w PlanWire
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("%s: %v (%s)", label, err, got)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("%s: %v (%s)", label, err, want)
	}
	if g.K != w.K || g.Feasible != w.Feasible || len(g.Assignments) != len(w.Assignments) {
		t.Fatalf("%s: got K=%d feasible=%v (%d units), want K=%d feasible=%v (%d units)",
			label, g.K, g.Feasible, len(g.Assignments), w.K, w.Feasible, len(w.Assignments))
	}
	for i := range g.Assignments {
		if g.Assignments[i] != w.Assignments[i] {
			t.Fatalf("%s: assignment %d = %+v, want %+v", label, i, g.Assignments[i], w.Assignments[i])
		}
	}
}

// samePlan asserts a plan a journal replay rebuilt is the plan served
// before the restart, bit for bit, in every field a restart keeps: K,
// feasibility, the objective and the assignments. Fevals, elapsed time and
// migrations describe the solve the serving process ran (see PlanWire).
func samePlan(t *testing.T, label string, got, want []byte) {
	t.Helper()
	samePlacement(t, label, got, want)
	var g, w PlanWire
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(g.Objective) != math.Float64bits(w.Objective) {
		t.Fatalf("%s: objective %v (%#x), want %v (%#x)", label, g.Objective, math.Float64bits(g.Objective), w.Objective, math.Float64bits(w.Objective))
	}
}

// stampedWindow is testWorkloads with a start_unix key, so ingest is
// idempotent under retries.
func stampedWindow(n, T int, scale float64, key int64) []byte {
	wls := testWorkloads(n, T, scale)
	for i := range wls {
		wls[i].StartUnix = key
	}
	return mustJSON(WindowRequest{Workloads: wls})
}

func TestCrashMatrix(t *testing.T) {
	type cell struct {
		name string
		arm  func(fi *journal.FaultInjector)
	}
	cells := []cell{}
	for _, p := range journal.Points {
		p := p
		cells = append(cells, cell{name: p, arm: func(fi *journal.FaultInjector) { fi.Crash(p, 1) }})
	}
	// A torn append: half the record frame reaches disk before the crash —
	// recovery must truncate the torn tail, not refuse to start.
	cells = append(cells, cell{name: "append.write/torn", arm: func(fi *journal.FaultInjector) {
		fi.CrashPartial(journal.PointAppendWrite, 1, 0.5)
	}})

	// The scripted stream: quiet, quiet, drifted (trigger), quiet, drifted
	// (trigger), quiet. SnapshotEvery=2 makes snapshots happen mid-stream,
	// so the snapshot points in the matrix actually fire.
	scales := []float64{1.001, 1.002, 1.3, 1.004, 1.3, 1.001}

	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := &journal.FaultInjector{}
			s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways, Fault: inj}, 2)
			defer func() { ts.Close(); s.Kill() }()

			if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("cm", 4, 8)); status != http.StatusCreated {
				t.Fatalf("register: %d %s", status, body)
			}
			// Arm after registration: the crash lands mid-stream.
			tc.arm(inj)

			// Drive the stream, keeping a client-side ledger of every acked
			// window and the plan served after each ack. The moment the armed
			// point has been crossed, flip the kill switch — a real SIGKILL
			// persists nothing past the crash point either.
			point := strings.TrimSuffix(tc.name, "/torn")
			type acked struct {
				key  int64
				resp WindowResponse
			}
			var ledger []acked
			var lastPlan []byte
			triggers := 0
			for i, scale := range scales {
				key := int64(1000 * (i + 1))
				status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/cm/windows", stampedWindow(4, 8, scale, key))
				if status == http.StatusOK {
					var resp WindowResponse
					if err := json.Unmarshal(body, &resp); err != nil {
						t.Fatal(err)
					}
					ledger = append(ledger, acked{key, resp})
					if resp.Triggered {
						triggers++
					}
					if ps, pb := do(t, http.MethodGet, ts.URL+"/v1/fleets/cm/plan", nil); ps == http.StatusOK {
						lastPlan = pb
					}
				} else if status != http.StatusServiceUnavailable {
					t.Fatalf("window %d: unexpected status %d (%s)", i, status, body)
				}
				if inj.Hits(point) > 0 {
					inj.Kill()
					break
				}
			}
			ts.Close()
			s.Kill()

			// Restart from the state directory, no faults.
			rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
			defer func() { rts.Close(); rs.Close() }()

			// Invariants 1 and 3: every acked window (and trigger) is
			// replayed. The journal may hold at most one more of each — a
			// window (or its advance) whose append persisted but whose ack
			// never reached the client; recovery replays it and the client's
			// retry deduplicates (at-least-once for unacked work).
			status, body := do(t, http.MethodGet, rts.URL+"/v1/fleets/cm", nil)
			if status != http.StatusOK {
				t.Fatalf("recovered status: %d %s", status, body)
			}
			var st FleetStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.Windows < len(ledger) || st.Windows > len(ledger)+1 {
				t.Errorf("recovered windows = %d, want %d acked (+ at most 1 in-flight)", st.Windows, len(ledger))
			}
			if st.Triggers < triggers || st.Triggers > triggers+1 {
				t.Errorf("recovered triggers = %d, want %d acked (+ at most 1 in-flight); double-fire or lost advance", st.Triggers, triggers)
			}

			// Invariant 2: the recovered plan is the last served plan —
			// unless the journal held an in-flight advance the client never
			// saw acked, in which case the recovered plan is the newer one
			// (a recovered server must never serve an OLDER plan).
			status, body = do(t, http.MethodGet, rts.URL+"/v1/fleets/cm/plan", nil)
			if status != http.StatusOK {
				t.Fatalf("recovered plan: %d %s", status, body)
			}
			if lastPlan != nil && st.Triggers == triggers {
				samePlacement(t, "recovered plan vs last served", body, lastPlan)
			}

			// Invariant 1, the retry contract: resending every acked window
			// returns its original ack as a duplicate, not a re-apply.
			for i, a := range ledger {
				status, body := do(t, http.MethodPost, rts.URL+"/v1/fleets/cm/windows",
					stampedWindow(4, 8, scales[i], a.key))
				if status != http.StatusOK {
					t.Fatalf("resend acked window %d: %d %s", i, status, body)
				}
				var resp WindowResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if !resp.Duplicate {
					t.Errorf("resent acked window %d re-applied instead of deduplicating", i)
				}
				if resp.Window != a.resp.Window || resp.Triggered != a.resp.Triggered {
					t.Errorf("resent window %d acked as (%d,%v), original (%d,%v)",
						i, resp.Window, resp.Triggered, a.resp.Window, a.resp.Triggered)
				}
			}

			// Invariant 4: the recovered server is live — a strongly drifted
			// fresh window is consumed (and may trigger a new re-solve).
			status, body = do(t, http.MethodPost, rts.URL+"/v1/fleets/cm/windows",
				stampedWindow(4, 8, 1.5, 99999))
			if status != http.StatusOK {
				t.Fatalf("fresh window after recovery: %d %s", status, body)
			}

			// The recovery surfaced its own metrics.
			status, body = do(t, http.MethodGet, rts.URL+"/metrics", nil)
			if status != http.StatusOK {
				t.Fatalf("metrics: %d", status)
			}
			if !strings.Contains(string(body), "kairos_recovery_fleets 1") {
				t.Errorf("metrics missing recovery gauge:\n%s", body)
			}
		})
	}
}

// TestRecoveryAfterGracefulClose: a clean shutdown snapshots, and the
// restart restores everything from the snapshot — plan, detector
// counters, event log, ack ring — without replaying window records.
func TestRecoveryAfterGracefulClose(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("gc", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	var acks []WindowResponse
	for i, scale := range []float64{1.001, 1.3, 1.002} {
		status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/gc/windows",
			stampedWindow(4, 8, scale, int64(1000*(i+1))))
		if status != http.StatusOK {
			t.Fatalf("window %d: %d %s", i, status, body)
		}
		var resp WindowResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		acks = append(acks, resp)
	}
	_, wantPlan := do(t, http.MethodGet, ts.URL+"/v1/fleets/gc/plan", nil)
	_, wantEvents := do(t, http.MethodGet, ts.URL+"/v1/fleets/gc/events", nil)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	if rs.recovery == nil || rs.recovery.SnapshotFleets != 1 {
		t.Fatalf("recovery stats %+v, want 1 fleet from the shutdown snapshot", rs.recovery)
	}
	if rs.recovery.Windows != 0 {
		t.Errorf("replayed %d window records, want 0 (snapshot should cover them)", rs.recovery.Windows)
	}
	_, gotPlan := do(t, http.MethodGet, rts.URL+"/v1/fleets/gc/plan", nil)
	samePlacement(t, "plan after graceful restart", gotPlan, wantPlan)
	_, gotEvents := do(t, http.MethodGet, rts.URL+"/v1/fleets/gc/events", nil)
	if string(gotEvents) != string(wantEvents) {
		t.Errorf("event log after graceful restart differs:\n got %s\nwant %s", gotEvents, wantEvents)
	}
	// The ack ring survives via the snapshot: a resend deduplicates.
	status, body := do(t, http.MethodPost, rts.URL+"/v1/fleets/gc/windows",
		stampedWindow(4, 8, 1.3, 2000))
	if status != http.StatusOK {
		t.Fatalf("resend: %d %s", status, body)
	}
	var resp WindowResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate || resp.Window != acks[1].Window || resp.Triggered != acks[1].Triggered {
		t.Errorf("resend after snapshot restore = %+v, want duplicate of %+v", resp, acks[1])
	}
}

// TestDeregisterSurvivesRestart: a journaled deregistration must not be
// resurrected by replay.
func TestDeregisterSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	for _, id := range []string{"keep", "drop"} {
		if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody(id, 3, 6)); status != http.StatusCreated {
			t.Fatalf("register %s: %d %s", id, status, body)
		}
	}
	if status, _ := do(t, http.MethodDelete, ts.URL+"/v1/fleets/drop", nil); status != http.StatusNoContent {
		t.Fatalf("delete: %d", status)
	}
	ts.Close()
	s.Kill() // no shutdown snapshot: the journal alone must get this right

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	if status, _ := do(t, http.MethodGet, rts.URL+"/v1/fleets/keep", nil); status != http.StatusOK {
		t.Errorf("fleet keep lost across restart: %d", status)
	}
	if status, _ := do(t, http.MethodGet, rts.URL+"/v1/fleets/drop", nil); status != http.StatusNotFound {
		t.Errorf("deregistered fleet resurrected by replay: %d", status)
	}
}

// TestRegistryMutationDuringSnapshot: a registration and a deregistration
// acked while a snapshot is being taken survive a restart. A snapshot
// copies the registry and then has the journal rotate away every record
// appended so far, so a registry record appended between the two would be
// in neither: the registered fleet gone after a restart, the deleted one
// back. The test holds a snapshot between the two at the lock of the first
// fleet it checkpoints; each request is then answered or waits at the
// snapshot lock, and after the restart the registry is the one the client
// saw acked.
func TestRegistryMutationDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "drop"} {
		mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody(id, 3, 6), http.StatusCreated)
	}
	s.mu.Lock()
	first := s.fleets["a"]
	s.mu.Unlock()
	first.mu.Lock()
	snapped := make(chan error, 1)
	go func() { snapped <- s.snapshot() }()
	stackWait(t, 1, "(*Server).snapshot", "(*Mutex).lockSlow")

	h := s.Handler()
	reg := startRequest(context.Background(), h, http.MethodPost, "/v1/fleets", registerBody("late", 3, 6))
	del := startRequest(context.Background(), h, http.MethodDelete, "/v1/fleets/drop", nil)
	answeredOrHeld(t, reg, "(*Server).handleRegister")
	answeredOrHeld(t, del, "(*Server).handleDelete")
	first.mu.Unlock()
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	reg.answer(t, "registration during a snapshot", http.StatusCreated)
	del.answer(t, "deregistration during a snapshot", http.StatusNoContent)
	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}

	rs, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for id, want := range map[string]int{"a": http.StatusOK, "late": http.StatusOK, "drop": http.StatusNotFound} {
		if status, body := serve(t, rs, http.MethodGet, "/v1/fleets/"+id, nil); status != want {
			t.Errorf("fleet %q after the restart: %d %s, want %d", id, status, body, want)
		}
	}
}

// TestRegistryRefusalSurvivesRestart: a registration or deregistration
// whose journal append fails, whole or torn, is answered 503 and changes
// the registry neither live nor after a restart. The journaled token orders
// a handler's apply after its append; this orders its ack there too.
func TestRegistryRefusalSurvivesRestart(t *testing.T) {
	for _, tc := range []struct {
		name, method, path string
		body               []byte
	}{
		{"register", http.MethodPost, "/v1/fleets", registerBody("late", 3, 6)},
		{"deregister", http.MethodDelete, "/v1/fleets/keep", nil},
	} {
		for _, torn := range []bool{false, true} {
			name := tc.name
			if torn {
				name += "/torn"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				fi := &journal.FaultInjector{}
				s, err := Open(Config{StateDir: dir, Journal: journal.Options{Sync: journal.SyncAlways, Fault: fi}, SnapshotEvery: 1 << 20, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("keep", 3, 6), http.StatusCreated)
				frac := 0.0
				if torn {
					frac = 0.5
				}
				fi.CrashPartial(journal.PointAppendWrite, 1, frac)
				mustServe(t, s, tc.method, tc.path, tc.body, http.StatusServiceUnavailable)
				fi.Kill()
				registry := func(s *Server, when string) {
					for id, want := range map[string]int{"keep": http.StatusOK, "late": http.StatusNotFound} {
						if status, body := serve(t, s, http.MethodGet, "/v1/fleets/"+id, nil); status != want {
							t.Errorf("fleet %q %s: %d %s, want %d", id, when, status, body, want)
						}
					}
				}
				registry(s, "after the refusal")
				if err := s.Kill(); err != nil {
					t.Fatal(err)
				}
				rs, err := openDir(dir, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				registry(rs, "after the restart")
			})
		}
	}
}

// answeredOrHeld waits until f is answered or a goroutine in handler waits
// at the snapshot lock.
func answeredOrHeld(t *testing.T, f *inFlight, handler string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		select {
		case <-f.done:
			return
		default:
		}
		if held, _ := stacksNaming(handler, "(*RWMutex).RLock"); held > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s neither answered nor waiting at the snapshot lock after 10s", handler)
		}
	}
}

// TestIdempotentIngestLive: the retry contract holds without any crash —
// a resend of an acked window (same start_unix) is answered from the ack
// ring, and windows without a start_unix are never deduplicated.
func TestIdempotentIngestLive(t *testing.T) {
	_, ts := newTestServer(t)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("idem", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/idem/windows", stampedWindow(4, 8, 1.001, 7000))
	if status != http.StatusOK {
		t.Fatalf("window: %d %s", status, body)
	}
	var first WindowResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	status, body = do(t, http.MethodPost, ts.URL+"/v1/fleets/idem/windows", stampedWindow(4, 8, 1.001, 7000))
	if status != http.StatusOK {
		t.Fatalf("resend: %d %s", status, body)
	}
	var again WindowResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Duplicate || again.Window != first.Window {
		t.Errorf("resend = %+v, want duplicate of %+v", again, first)
	}
	// Unstamped windows (start_unix 0) apply every time.
	for want := 1; want <= 2; want++ {
		status, body = do(t, http.MethodPost, ts.URL+"/v1/fleets/idem/windows",
			mustJSON(WindowRequest{Workloads: testWorkloads(4, 8, 1.001)}))
		if status != http.StatusOK {
			t.Fatalf("unstamped window: %d %s", status, body)
		}
		var resp WindowResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Duplicate || resp.Window != want {
			t.Errorf("unstamped window = %+v, want fresh apply as window %d", resp, want)
		}
	}
}

// TestSolverBackoffSuppressesSolves: during backoff a drifted window is
// monitored detect-only (no re-solve, detector re-armed) and the
// consecutive-failure gauge is visible; once the backoff expires the
// same drift triggers normally.
func TestSolverBackoffSuppressesSolves(t *testing.T) {
	s, ts := newTestServer(t)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("bk", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	s.mu.Lock()
	sess := s.fleets["bk"]
	s.mu.Unlock()
	sess.mu.Lock()
	sess.failures = 3
	sess.backoffUntil = time.Now().Add(time.Hour)
	sess.mu.Unlock()
	s.met.setResolveFailures("bk", 3)

	status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/bk/windows", stampedWindow(4, 8, 1.3, 1000))
	if status != http.StatusOK {
		t.Fatalf("backoff window: %d %s", status, body)
	}
	var resp WindowResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Triggered || resp.Event != nil {
		t.Fatalf("backoff window still triggered a re-solve: %+v", resp)
	}
	status, body = do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if !strings.Contains(string(body), `kairos_resolve_failures_consecutive{fleet="bk"} 3`) {
		t.Errorf("metrics missing failure gauge:\n%s", body)
	}

	// Backoff expires: the held drift fires on the next window, because
	// the suppressed trigger re-armed the detector.
	sess.mu.Lock()
	sess.backoffUntil = time.Time{}
	sess.mu.Unlock()
	status, body = do(t, http.MethodPost, ts.URL+"/v1/fleets/bk/windows", stampedWindow(4, 8, 1.3, 2000))
	if status != http.StatusOK {
		t.Fatalf("post-backoff window: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Triggered {
		t.Fatal("drift did not fire after the backoff expired")
	}
	status, body = do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if !strings.Contains(string(body), `kairos_resolve_failures_consecutive{fleet="bk"} 0`) {
		t.Errorf("failure gauge not cleared by the successful solve:\n%s", body)
	}
}

// TestBumpBackoff pins the backoff schedule: exponential growth from the
// 1 s base, jitter confined to the upper half, capped at 60 s. It reads the
// delays bumpBackoff returns, so nothing sleeps.
func TestBumpBackoff(t *testing.T) {
	sess := &session{}
	expect := []time.Duration{1, 2, 4, 8, 16, 32, 60, 60, 60} // pre-jitter targets, s
	for i, wantS := range expect {
		n, d := sess.bumpBackoff()
		if n != i+1 {
			t.Fatalf("failure count = %d, want %d", n, i+1)
		}
		want := wantS * time.Second
		if d < want/2 || d > want {
			t.Errorf("backoff %d = %v, want within [%v, %v]", n, d, want/2, want)
		}
	}
}

// TestDegradedWhileRecovering: every request during journal replay is
// answered 503 with a Retry-After, including health checks.
func TestDegradedWhileRecovering(t *testing.T) {
	s, ts := newTestServer(t)
	s.recovering.Store(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status during recovery = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After")
	}
	s.recovering.Store(false)
	if status, _ := do(t, http.MethodGet, ts.URL+"/healthz", nil); status != http.StatusOK {
		t.Error("server did not exit degraded mode")
	}
}

// TestRetryAfterOnShutdown: the shutdown-abort 503 carries Retry-After,
// telling collectors the window is safe to resend to a replacement.
func TestRetryAfterOnShutdown(t *testing.T) {
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("ra", 3, 6)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	s.Close()
	resp, err := http.Post(ts.URL+"/v1/fleets/ra/windows", "application/json",
		strings.NewReader(string(stampedWindow(3, 6, 1.0, 1000))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("window during shutdown = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shutdown 503 missing Retry-After")
	}
}

// TestOversizedBody413: a /v1/ body beyond the MaxBytesReader cap is
// rejected with 413, not buffered.
func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t)
	var huge []byte
	huge = append(huge, `{"id": "big", "workloads": "`...)
	huge = append(huge, bytes.Repeat([]byte("a"), maxBodyBytes+1024)...)
	huge = append(huge, `"}`...)
	status, _ := do(t, http.MethodPost, ts.URL+"/v1/fleets", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized register body = %d, want 413", status)
	}
}
