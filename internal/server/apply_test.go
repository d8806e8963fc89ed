package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
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
	sess.turn <- struct{}{}
	sess.backoffUntil = time.Now().Add(time.Hour)
	<-sess.turn

	live := postWindow(t, ts.URL, "bk", 4, 8, 1.3, 1000)
	if live.Triggered || live.Duplicate {
		t.Fatalf("backoff window acked %+v, want a fresh untriggered ack", live)
	}
	ts.Close()
	s.Kill()

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	if rs.recovery.Windows != 1 || rs.recovery.Rearms != 0 {
		t.Fatalf("recovery stats %+v, want 1 window replayed and no rearm", rs.recovery)
	}
	again := postWindow(t, rts.URL, "bk", 4, 8, 1.3, 1000)
	if !again.Duplicate || again.Triggered != live.Triggered || again.Window != live.Window {
		t.Errorf("resend after restart acked %+v, live ack was %+v", again, live)
	}
	// The held-back trigger changed nothing: the drift fires now.
	if next := postWindow(t, rts.URL, "bk", 4, 8, 1.3, 2000); !next.Triggered {
		t.Errorf("drift did not fire after the restart: %+v", next)
	}
}

// TestCrashBetweenWindowAndOutcome is the crash-matrix cell between a
// window record and its outcome: the drifted window reaches the journal,
// the advance it led to does not. Live, the refused advance is a retryable
// 503 and commits nothing; the restart replays the outcome-less trigger as
// the nothing it was, serves the pre-crash plan, answers the resend as the
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
	for _, want := range []string{"kairos_recovery_advances_replayed 0", "kairos_recovery_windows_replayed 2"} {
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
		t.Fatalf("uncommitted trigger did not re-fire on the next drifted window: %+v", next)
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

// ingest runs body through processWindow as its handler does once it holds
// the fleet's turn without having waited for it: the window decoding from
// the start, and journaled while it decodes when its span can be guessed.
func ingest(ctx context.Context, s *Server, sess *session, body []byte) ingestResp {
	return s.processWindow(ctx, sess, body, startDecode(body, sess.needDisk), false)
}

// TestFailedSolveWindowIsAcked: a window whose re-solve failed is consumed
// and journaled, so it must be in the ack ring like any other — a live
// retry deduplicates instead of feeding the detector and the forecast
// history the same window twice, exactly as a retry after a restart does.
// The failure is a cancelled solve, driven through processWindow the way
// a window handler drives it.
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
	body := stampedWindow(4, 8, 1.3, 1000)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if resp := ingest(cancelled, s, sess, body); !errors.Is(resp.err, context.Canceled) {
		t.Fatalf("window with a cancelled re-solve answered %+v, want the cancellation", resp)
	}
	retry := ingest(context.Background(), s, sess, body)
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

// TestUncommittedTriggerRestart: a trigger that commits nothing — held
// back by backoff, or whose re-solve fails — appends no record after its
// window, since it left the fleet as a quiet window would. After a restart
// the resend is answered as the untriggered window it was, and the drift
// fires on the next window.
func TestUncommittedTriggerRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		post func(t *testing.T, s *Server, url string, sess *session) // posts the drifted window 2000
	}{
		{"backoff", func(t *testing.T, _ *Server, url string, sess *session) {
			sess.turn <- struct{}{}
			sess.backoffUntil = time.Now().Add(time.Hour)
			<-sess.turn
			if ack := postWindow(t, url, sess.id, 4, 8, 1.3, 2000); ack.Triggered {
				t.Fatalf("backed-off window acked %+v, want untriggered", ack)
			}
		}},
		{"failed re-solve", func(t *testing.T, s *Server, _ string, sess *session) {
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			sess.turn <- struct{}{}
			resp := ingest(cancelled, s, sess, stampedWindow(4, 8, 1.3, 2000))
			<-sess.turn
			if !errors.Is(resp.err, context.Canceled) {
				t.Fatalf("window with a cancelled re-solve answered %+v, want the cancellation", resp)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
			defer func() { ts.Close(); s.Kill() }()
			if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("u", 4, 8)); status != http.StatusCreated {
				t.Fatalf("register: %d %s", status, body)
			}
			postWindow(t, ts.URL, "u", 4, 8, 1.001, 1000)
			s.mu.Lock()
			sess := s.fleets["u"]
			s.mu.Unlock()
			tc.post(t, s, ts.URL, sess)
			ts.Close()
			s.Kill()

			records := journalRecords(t, dir)
			if len(records) != 3 {
				t.Fatalf("journal holds %d records, want the registration and two windows", len(records))
			}
			if rw, err := decodeRecord(records[2].Payload); err != nil || rw.Window == nil {
				t.Fatalf("last record %+v (%v), want the drifted window", rw, err)
			}

			rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
			defer func() { rts.Close(); rs.Close() }()
			if again := postWindow(t, rts.URL, "u", 4, 8, 1.3, 2000); !again.Duplicate || again.Triggered || again.Window != 1 {
				t.Errorf("resend after restart acked %+v, want duplicate of (1, untriggered)", again)
			}
			if next := postWindow(t, rts.URL, "u", 4, 8, 1.3, 3000); !next.Triggered || next.Window != 2 {
				t.Errorf("drift did not fire on the window after the uncommitted trigger: %+v", next)
			}
		})
	}
}

// TestReplayRetiredRearmRecord: a state dir whose journal holds a rearm
// record, written by a daemon from before rearms were retired after its
// backed-off trigger, opens to the plan and acks the daemon served, and the
// drift fires on the next window.
func TestReplayRetiredRearmRecord(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { ts.Close(); s.Kill() }()
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("old", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	quiet := postWindow(t, ts.URL, "old", 4, 8, 1.001, 1000)
	s.mu.Lock()
	sess := s.fleets["old"]
	s.mu.Unlock()
	sess.turn <- struct{}{}
	sess.backoffUntil = time.Now().Add(time.Hour)
	<-sess.turn
	held := postWindow(t, ts.URL, "old", 4, 8, 1.3, 2000)
	_, wantPlan := do(t, http.MethodGet, ts.URL+"/v1/fleets/old/plan", nil)
	ts.Close()
	s.Kill()
	appendRaw(t, dir, mustJSON(RecordWire{Rearm: &RearmRecord{Fleet: "old"}}))

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	if rs.recovery.Windows != 2 || rs.recovery.Rearms != 1 || rs.recovery.Advances != 0 {
		t.Fatalf("recovery stats %+v, want 2 windows and the rearm replayed", rs.recovery)
	}
	_, gotPlan := do(t, http.MethodGet, rts.URL+"/v1/fleets/old/plan", nil)
	samePlan(t, "plan after replaying a rearm record", gotPlan, wantPlan)
	for _, live := range []WindowResponse{quiet, held} {
		key := int64(1000 * (live.Window + 1))
		if again := postWindow(t, rts.URL, "old", 4, 8, 1.3, key); !again.Duplicate || again.Triggered != live.Triggered || again.Window != live.Window {
			t.Errorf("resend of window %d acked %+v, live ack was %+v", key, again, live)
		}
	}
	if next := postWindow(t, rts.URL, "old", 4, 8, 1.3, 3000); !next.Triggered || next.Window != 2 {
		t.Errorf("drift did not fire after replaying the rearm record: %+v", next)
	}
}

// TestReplayRefusedDriftOptions: a state dir holding registrations from
// before checkRegister refused bad drift options still opens, from its
// register records and from a snapshot. A negative drift_threshold
// replays with the default threshold, as the fleet was served, and its
// drifted windows fire; a fleet whose cool-down the detector refuses never
// consumed a window, and replay skips it with its windows.
func TestReplayRefusedDriftOptions(t *testing.T) {
	live := t.TempDir()
	s, err := openDir(live, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("thresh", 4, 8), http.StatusCreated)
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("cool", 4, 8), http.StatusCreated)
	want := stateOf(t, s, "thresh")
	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, live)
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records, want the two registrations", len(recs))
	}
	// withOptions rewrites fleet id's empty options object in doc.
	withOptions := func(doc []byte, id, opts string) []byte {
		t.Helper()
		i := bytes.Index(doc, []byte(`"id":"`+id+`"`))
		j := bytes.Index(doc[max(i, 0):], []byte(`"options":{}`))
		if i < 0 || j < 0 {
			t.Fatalf("no options of fleet %q in %.200s", id, doc)
		}
		return append(append(bytes.Clone(doc[:i+j]), `"options":`+opts...), doc[i+j+len(`"options":{}`):]...)
	}
	const negThreshold, negCooldown = `{"drift_threshold":-1}`, `{"cooldown":-1}`
	recovered := func(what, dir string) {
		t.Helper()
		rs, err := openDir(dir, t.Logf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer rs.Kill()
		if got := stateOf(t, rs, "thresh"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s recovered\n%+v\nwant\n%+v", what, got, want)
		}
		if status, body := serve(t, rs, http.MethodGet, "/v1/fleets/cool", nil); status != http.StatusNotFound {
			t.Errorf("%s: the fleet with a refused cool-down answers %d %s, want 404", what, status, body)
		}
		var ack WindowResponse
		if err := json.Unmarshal(mustServe(t, rs, http.MethodPost, "/v1/fleets/thresh/windows", stampedWindow(4, 8, 1.3, 1000), http.StatusOK), &ack); err != nil {
			t.Fatal(err)
		}
		if !ack.Triggered {
			t.Errorf("%s: a drifted window at the default threshold did not trigger: %+v", what, ack)
		}
	}

	dir := t.TempDir()
	appendRaw(t, dir,
		withOptions(recs[0].Payload, "thresh", negThreshold),
		withOptions(recs[1].Payload, "cool", negCooldown),
		mustJSON(RecordWire{Window: &WindowRecord{Fleet: "cool", Workloads: testWorkloads(4, 8, 1.3)}}))
	recovered("register records", dir)

	// A snapshot holding both fleets, as an earlier release wrote it.
	s, err = openDir(live, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec, err := journal.Open(live, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	l, _, err = journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(withOptions(withOptions(rec.Snapshot, "thresh", negThreshold), "cool", negCooldown)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recovered("a snapshot", dir)
}
