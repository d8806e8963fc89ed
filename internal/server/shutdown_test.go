package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"kairos/internal/fleet"
)

// TestShutdownAbortsInflightSolve: Server.Close cancels every fleet's
// context, which must abort a drift-triggered 197-server warm re-solve
// mid-flight — Close returns within a shutdown grace window instead of
// waiting out the solve, and the in-flight window is answered with the
// cancellation instead of left hanging.
func TestShutdownAbortsInflightSolve(t *testing.T) {
	fl := fleet.All()
	baseline := fl.Workloads(0.7)
	if len(baseline) != 197 {
		t.Fatalf("ALL fleet has %d servers, want 197", len(baseline))
	}

	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", mustJSON(RegisterRequest{
		ID:           "all-197",
		Workloads:    wireWorkloads(baseline, 1.0),
		AutoMachines: &AutoMachines{Count: len(baseline)},
	}))
	if status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}

	// Apply a heavily drifted window (12% over baseline, threshold 4%) the
	// way its handler does — under the fleet's turn and the snapshot
	// read-lock — and close once the re-solve is on the goroutine's stack:
	// no timing guess, unlike an HTTP post or a sleep sized to the solver.
	// (Root cancel_test.go covers the abort of a solve at the library.)
	s.mu.Lock()
	sess := s.fleets["all-197"]
	s.mu.Unlock()
	sess.turn <- struct{}{}
	answered := make(chan ingestResp, 1)
	go func() {
		s.pauseRW.RLock()
		resp := ingest(sess.ctx, s, sess, mustJSON(WindowRequest{Workloads: wireWorkloads(baseline, 1.12)}))
		s.pauseRW.RUnlock()
		<-sess.turn
		answered <- resp
	}()
	stackWait(t, 1, "(*Fleet).Resolve")

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closeDur := time.Since(start)
	// An uncancelled 197-server re-solve holds the fleet's turn for
	// seconds; the abort must bring Close well under a serve -grace window
	// (10s default, bound loose for slow CI).
	if closeDur > 5*time.Second {
		t.Errorf("Close took %v with a solve in flight", closeDur)
	}
	t.Logf("Close returned in %v", closeDur)

	select {
	case resp := <-answered:
		if !errors.Is(resp.err, context.Canceled) {
			t.Fatalf("in-flight window answered (%+v, %v), want context.Canceled", resp, resp.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight window was never answered after Close")
	}

	// Windows posted over HTTP after shutdown are answered 503, not hung
	// and not 410 (the fleet was not deregistered — the server is gone).
	status, body = do(t, http.MethodPost, ts.URL+"/v1/fleets/all-197/windows",
		mustJSON(WindowRequest{Workloads: wireWorkloads(baseline, 1.0)}))
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "shutting down") {
		t.Errorf("window after Close: %d %s, want 503 shutting down", status, body)
	}

	// The server refuses new registrations after Close.
	status, body = do(t, http.MethodPost, ts.URL+"/v1/fleets", mustJSON(RegisterRequest{
		ID:           "late",
		Workloads:    wireWorkloads(baseline[:2], 1.0),
		AutoMachines: &AutoMachines{Count: 2},
	}))
	if status != http.StatusServiceUnavailable {
		t.Errorf("register after Close: %d %s, want 503", status, body)
	}
}

// TestFleetTurnWaiters: a window waiting for its fleet's turn is answered
// 410 when the fleet is deregistered and 503 when the server closes, and
// when its collector goes away its handler returns and gives its body
// back. In no case is the window journaled or applied.
func TestFleetTurnWaiters(t *testing.T) {
	body := stampedWindow(4, 8, 1.001, 1000)
	// setup registers fleet a, empties the free list and takes a's turn.
	setup := func(t *testing.T) (*Server, string, *session) {
		dir := t.TempDir()
		s, err := openDir(dir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("a", 4, 8), http.StatusCreated)
		for len(s.bodies) > 0 {
			<-s.bodies
		}
		s.mu.Lock()
		sess := s.fleets["a"]
		s.mu.Unlock()
		sess.turn <- struct{}{}
		return s, dir, sess
	}
	// waiting starts the window and waits until its handler waits for the
	// turn the test holds.
	waiting := func(ctx context.Context, s *Server) *inFlight {
		f := startRequest(ctx, s.Handler(), http.MethodPost, "/v1/fleets/a/windows", body)
		stackWait(t, 1, "[select", "(*Server).handleWindow")
		return f
	}
	// notJournaled checks, once the server is stopped, that the window
	// neither reached the journal nor the fleet, and that its body was given
	// back.
	notJournaled := func(t *testing.T, s *Server, dir string, sess *session) {
		for _, r := range journalRecords(t, dir) {
			if bytes.HasPrefix(r.Payload, []byte(`{"window":`)) {
				t.Errorf("a window that never had its turn was journaled: %.60s", r.Payload)
			}
		}
		if n := sess.fleet.Window(); n != 0 {
			t.Errorf("fleet consumed %d windows, want 0", n)
		}
		if n := len(s.bodies); n != 1 {
			t.Errorf("%d bodies given back, want the window's", n)
		}
	}

	t.Run("deregistered", func(t *testing.T) {
		s, dir, sess := setup(t)
		win := waiting(context.Background(), s)
		del := startRequest(context.Background(), s.Handler(), http.MethodDelete, "/v1/fleets/a", nil)
		win.answer(t, "window waiting when its fleet went", http.StatusGone)
		// The deregistration waits for the turn the test holds.
		stackWait(t, 1, "[chan send", "(*Server).handleDelete")
		<-sess.turn
		del.answer(t, "deregistration", http.StatusNoContent)
		if err := s.Kill(); err != nil {
			t.Fatal(err)
		}
		notJournaled(t, s, dir, sess)
	})

	t.Run("closed", func(t *testing.T) {
		s, dir, sess := setup(t)
		win := waiting(context.Background(), s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		win.answer(t, "window waiting when the server closed", http.StatusServiceUnavailable)
		notJournaled(t, s, dir, sess)
	})

	t.Run("collector gone", func(t *testing.T) {
		s, dir, sess := setup(t)
		ctx, disconnect := context.WithCancel(context.Background())
		win := waiting(ctx, s)
		disconnect()
		select {
		case <-win.done:
		case <-time.After(10 * time.Second):
			t.Fatal("the handler of a collector that went away never returned")
		}
		<-sess.turn
		if err := s.Kill(); err != nil {
			t.Fatal(err)
		}
		notJournaled(t, s, dir, sess)
	})
}

// settledGoroutines returns the goroutine count once it is at most base,
// or after 2s: it waits out the moment between a goroutine's last
// statement — the WaitGroup.Done or send its joiner waits for — and its
// exit.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestFleetsCostNoGoroutines: a registered fleet is a registry entry, not a
// goroutine; its windows apply on the handlers that decoded them.
func TestFleetsCostNoGoroutines(t *testing.T) {
	s := New(nil)
	defer s.Close()
	base := runtime.NumGoroutine()
	for _, id := range []string{"a", "b", "c", "d"} {
		mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody(id, 3, 6), http.StatusCreated)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after four registrations, %d before", n, base)
	}
}
