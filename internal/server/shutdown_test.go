package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kairos/internal/fleet"
)

// TestShutdownAbortsInflightSolve: Server.Close cancels the reconcile
// loops' contexts, which must abort a drift-triggered 197-server warm
// re-solve mid-flight — Close returns within a shutdown grace window
// instead of waiting out the solve, and the in-flight window is answered
// with the cancellation instead of left hanging.
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

	// Hand a heavily drifted window (12% over baseline, threshold 4%) to
	// the reconcile loop directly and close at once: the channel send
	// completes exactly when the loop receives the window, so the loop is
	// committed to it when Close lands — no timing guess, unlike an HTTP
	// post or a sleep sized to the solver. Wherever the cancellation finds
	// the loop — before the solve, where Resolve returns it immediately, or
	// inside it — the window is answered with it. (Root cancel_test.go
	// covers the abort of a solve already under way.)
	window, err := toWorkloads(wireWorkloads(baseline, 1.12), false)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sess := s.fleets["all-197"]
	s.mu.Unlock()
	ir := ingestReq{window: window, reply: make(chan ingestResp, 1)}
	select {
	case sess.ingest <- ir:
	case <-time.After(10 * time.Second):
		t.Fatal("reconcile loop never picked up the window")
	}

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	closeDur := time.Since(start)
	// An uncancelled 197-server re-solve holds the loop for seconds; the
	// abort must bring Close well under a serve -grace window (10s default,
	// bound loose for slow CI).
	if closeDur > 5*time.Second {
		t.Errorf("Close took %v with a solve in flight", closeDur)
	}
	t.Logf("Close returned in %v", closeDur)

	select {
	case resp := <-ir.reply:
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
