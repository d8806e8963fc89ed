package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"kairos/internal/journal"
)

// Replay applies each journal record with the function the live server
// applied it with, so what a restarted daemon answers about a window is
// what the crashed one answered. These tests take the three windows whose
// trigger did not advance the plan — suppressed by backoff, advance never
// journaled, re-solve failed — through a restart.

// postWindow posts a stamped window and decodes its acknowledgement.
func postWindow(t *testing.T, url, id string, n, T int, scale float64, key int64) WindowResponse {
	t.Helper()
	status, body := do(t, http.MethodPost, url+"/v1/fleets/"+id+"/windows", stampedWindow(n, T, scale, key))
	if status != http.StatusOK {
		t.Fatalf("window %d: %d %s", key, status, body)
	}
	var resp WindowResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBackoffAckSurvivesRestart: a drifted window ingested while the solver
// backs off is acked triggered:false — it advanced nothing — and a resend
// after a restart must say the same, not the detector's raw verdict.
func TestBackoffAckSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { ts.Close(); s.Kill() }()
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("bk", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	s.mu.Lock()
	sess := s.fleets["bk"]
	s.mu.Unlock()
	sess.mu.Lock()
	sess.backoffUntil = time.Now().Add(time.Hour)
	sess.mu.Unlock()

	live := postWindow(t, ts.URL, "bk", 4, 8, 1.3, 1000)
	if live.Triggered || live.Duplicate {
		t.Fatalf("backoff window acked %+v, want a fresh untriggered ack", live)
	}
	ts.Close()
	s.Kill()

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	if rs.recovery.Windows != 1 || rs.recovery.Rearms != 1 || rs.recovery.Healed != 0 {
		t.Fatalf("recovery stats %+v, want 1 window and its rearm replayed", rs.recovery)
	}
	again := postWindow(t, rts.URL, "bk", 4, 8, 1.3, 1000)
	if !again.Duplicate || again.Triggered != live.Triggered || again.Window != live.Window {
		t.Errorf("resend after restart acked %+v, live ack was %+v", again, live)
	}
	// The rearm replayed too: the drift the backoff held fires now.
	if next := postWindow(t, rts.URL, "bk", 4, 8, 1.3, 2000); !next.Triggered {
		t.Errorf("drift did not fire after the restart: %+v", next)
	}
}

// TestCrashBetweenWindowAndOutcome is the crash-matrix cell between a
// window record and its outcome: the drifted window reaches the journal,
// the advance it led to does not. Live, the refused advance is a retryable
// 503 and commits nothing; the restart self-heals the outcome-less trigger
// by re-arming, serves the pre-crash plan, answers the resend as the
// untriggered window it was, and the next drifted window advances. A second
// restart replays that advance: both restarts serve the plan the live
// server served, bit for bit.
func TestCrashBetweenWindowAndOutcome(t *testing.T) {
	dir := t.TempDir()
	inj := &journal.FaultInjector{}
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways, Fault: inj}, 256)
	defer func() { ts.Close(); s.Kill() }()
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("heal", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	if quiet := postWindow(t, ts.URL, "heal", 4, 8, 1.001, 1000); quiet.Triggered {
		t.Fatalf("quiet window triggered: %+v", quiet)
	}
	_, wantPlan := do(t, http.MethodGet, ts.URL+"/v1/fleets/heal/plan", nil)

	// The next append (the drifted window's record) succeeds, the one after
	// it (its advance) crashes.
	inj.Crash(journal.PointAppendWrite, 2)
	resp, err := http.Post(ts.URL+"/v1/fleets/heal/windows", "application/json",
		bytes.NewReader(stampedWindow(4, 8, 1.3, 2000)))
	if err != nil {
		t.Fatal(err)
	}
	var refused ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		!strings.Contains(refused.Error, "journaling advance") {
		t.Fatalf("refused advance answered %d (Retry-After %q) %q, want a retryable 503 naming the advance",
			resp.StatusCode, resp.Header.Get("Retry-After"), refused.Error)
	}
	inj.Kill()
	_, livePlan := do(t, http.MethodGet, ts.URL+"/v1/fleets/heal/plan", nil)
	samePlacement(t, "plan after the refused advance", livePlan, wantPlan)
	ts.Close()
	s.Kill()

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Kill() }()
	_, metrics := do(t, http.MethodGet, rts.URL+"/metrics", nil)
	for _, want := range []string{"kairos_recovery_triggers_healed 1", "kairos_recovery_advances_replayed 0", "kairos_recovery_windows_replayed 2"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics after recovery missing %q", want)
		}
	}
	_, gotPlan := do(t, http.MethodGet, rts.URL+"/v1/fleets/heal/plan", nil)
	samePlan(t, "recovered plan vs pre-crash", gotPlan, wantPlan)
	if _, events := do(t, http.MethodGet, rts.URL+"/v1/fleets/heal/events", nil); strings.TrimSpace(string(events)) != "[]" {
		t.Errorf("recovered event log %s, want none: the advance never happened", events)
	}
	if again := postWindow(t, rts.URL, "heal", 4, 8, 1.3, 2000); !again.Duplicate || again.Triggered || again.Window != 1 {
		t.Errorf("resend of the window whose advance was lost acked %+v, want duplicate of (1, untriggered)", again)
	}
	next := postWindow(t, rts.URL, "heal", 4, 8, 1.3, 3000)
	if !next.Triggered || next.Event == nil || next.Window != 2 {
		t.Fatalf("healed trigger did not re-fire on the next drifted window: %+v", next)
	}
	var st FleetStatus
	_, body := do(t, http.MethodGet, rts.URL+"/v1/fleets/heal", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Triggers != 1 || st.LastTrigger != 2 {
		t.Errorf("status after the re-fired trigger %+v, want exactly one advance, at window 2", st)
	}

	_, advancedPlan := do(t, http.MethodGet, rts.URL+"/v1/fleets/heal/plan", nil)
	rts.Close()
	rs.Kill()
	rs2, rts2 := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts2.Close(); rs2.Close() }()
	if rs2.recovery.Advances != 1 {
		t.Fatalf("recovery stats %+v, want the advance replayed", rs2.recovery)
	}
	_, replayedPlan := do(t, http.MethodGet, rts2.URL+"/v1/fleets/heal/plan", nil)
	samePlan(t, "replayed advance vs live", replayedPlan, advancedPlan)
}

// TestFailedSolveWindowIsAcked: a window whose re-solve failed is consumed
// and journaled, so it must be in the ack ring like any other — a live
// retry deduplicates instead of feeding the detector and the forecast
// history the same window twice, exactly as a retry after a restart does.
// The failure is a cancelled solve, driven through processWindow the way
// the reconcile loop drives it.
func TestFailedSolveWindowIsAcked(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { ts.Close(); s.Kill() }()
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("fs", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	s.mu.Lock()
	sess := s.fleets["fs"]
	s.mu.Unlock()
	wire, span, err := decodeWindow(stampedWindow(4, 8, 1.3, 1000))
	if err != nil {
		t.Fatal(err)
	}
	req := ingestReq{key: windowKey(wire), record: [][]byte{sess.recordHead, span, windowTail}}
	if req.window, err = toWorkloads(wire, sess.needDisk); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if resp := s.processWindow(cancelled, sess, req); !errors.Is(resp.err, context.Canceled) {
		t.Fatalf("window with a cancelled re-solve answered %+v, want the cancellation", resp)
	}
	retry := s.processWindow(context.Background(), sess, req)
	if retry.err != nil || !retry.duplicate || retry.triggered || retry.window != 0 {
		t.Fatalf("live retry answered %+v, want duplicate of (0, untriggered)", retry)
	}
	if n := sess.fleet.Window(); n != 1 {
		t.Fatalf("session consumed %d windows, want 1: the retry was re-applied", n)
	}
	ts.Close()
	s.Kill()

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	if again := postWindow(t, rts.URL, "fs", 4, 8, 1.3, 1000); !again.Duplicate || again.Triggered || again.Window != 0 {
		t.Errorf("retry after restart acked %+v, want duplicate of (0, untriggered)", again)
	}
	if next := postWindow(t, rts.URL, "fs", 4, 8, 1.3, 2000); !next.Triggered || next.Window != 1 {
		t.Errorf("drift did not fire on the window after the failed re-solve: %+v", next)
	}
}
