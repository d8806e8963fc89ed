package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kairos"
	"kairos/internal/fleet"
)

// wireWorkloads renders library workloads (as built by the dataset
// generators) into their wire form, with every series scaled by f — the
// collector's view of the fleet at one utilization level.
func wireWorkloads(wls []kairos.Workload, f float64) []WorkloadWire {
	out := make([]WorkloadWire, len(wls))
	for i, w := range wls {
		scaled := func(s []float64) []float64 {
			v := make([]float64, len(s))
			for j, x := range s {
				v[j] = x * f
			}
			return v
		}
		ww := WorkloadWire{
			Name:        w.Name,
			StepSeconds: w.CPU.Step.Seconds(),
			CPU:         scaled(w.CPU.Values),
			RAMBytes:    scaled(w.RAMBytes.Values),
		}
		if w.WSBytes != nil {
			ww.WSBytes = scaled(w.WSBytes.Values)
		}
		if w.UpdateRate != nil {
			ww.UpdateRate = scaled(w.UpdateRate.Values)
		}
		out[i] = ww
	}
	return out
}

// TestServeE2E197 is the acceptance scenario end to end: register the
// 197-server ALL fleet over HTTP, stream quiet observation windows from
// concurrent collectors, then a drifted window; a drift-triggered warm
// re-solve must fire in the reconcile loop, the served plan must advance,
// and the event log and /metrics must reflect the trigger. Runs under
// -race (see TestFleetConcurrentObserve for the library-level
// hammer).
func TestServeE2E197(t *testing.T) {
	fl := fleet.All()
	baseline := fl.Workloads(0.7)
	if len(baseline) != 197 {
		t.Fatalf("ALL fleet has %d servers, want 197", len(baseline))
	}

	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Register over /v1/fleets with the paper's standard homogeneous
	// targets (one candidate machine per consolidated server).
	status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", mustJSON(RegisterRequest{
		ID:           "all-197",
		Workloads:    wireWorkloads(baseline, 1.0),
		AutoMachines: &AutoMachines{Count: len(baseline)},
	}))
	if status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	var st FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workloads != 197 || st.K < 1 || st.K > 197 || !st.Feasible {
		t.Fatalf("registration status = %+v", st)
	}
	t.Logf("registered: 197 workloads -> K=%d", st.K)

	status, initialPlan := do(t, http.MethodGet, ts.URL+"/v1/fleets/all-197/plan", nil)
	if status != http.StatusOK {
		t.Fatalf("initial plan: %d %s", status, initialPlan)
	}

	// Concurrent collectors each stream quiet windows (±0.3% of the
	// registered baseline): the reconcile loop must serialize them and
	// none may trigger.
	const collectors = 4
	quiet := [collectors][]byte{}
	for c := range quiet {
		quiet[c] = mustJSON(WindowRequest{Workloads: wireWorkloads(baseline, 1.0+0.003*float64(c%2))})
	}
	var wg sync.WaitGroup
	errs := make(chan string, collectors)
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/all-197/windows", quiet[c])
			if status != http.StatusOK {
				errs <- string(body)
				return
			}
			var resp WindowResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				errs <- err.Error()
				return
			}
			if resp.Triggered {
				errs <- "quiet window triggered a re-solve"
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatalf("quiet collector: %s", msg)
	}

	// One drifted window (12% above baseline, threshold 0.04) must fire
	// the warm re-solve, and the ack carries the event.
	status, body = do(t, http.MethodPost, ts.URL+"/v1/fleets/all-197/windows",
		mustJSON(WindowRequest{Workloads: wireWorkloads(baseline, 1.12)}))
	if status != http.StatusOK {
		t.Fatalf("drifted window: %d %s", status, body)
	}
	var resp WindowResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Triggered || resp.Event == nil {
		t.Fatalf("drifted window did not trigger: %+v (%s)", resp, body)
	}
	if resp.Window != collectors {
		t.Errorf("drifted window consumed as %d, want %d", resp.Window, collectors)
	}
	if resp.Event.MaxDrift < 0.04 {
		t.Errorf("event drift %v below the threshold that fired it", resp.Event.MaxDrift)
	}
	t.Logf("trigger: %s", resp.Event.Trigger)

	// The served plan advanced to the re-solve.
	status, newPlan := do(t, http.MethodGet, ts.URL+"/v1/fleets/all-197/plan", nil)
	if status != http.StatusOK {
		t.Fatalf("plan after trigger: %d %s", status, newPlan)
	}
	if string(newPlan) == string(initialPlan) {
		t.Error("served plan did not advance after the trigger")
	}
	var plan PlanWire
	if err := json.Unmarshal(newPlan, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.K != resp.Event.K {
		t.Errorf("served plan K=%d != event K=%d", plan.K, resp.Event.K)
	}
	if len(plan.Assignments) != 197 {
		t.Errorf("plan has %d assignments, want 197", len(plan.Assignments))
	}

	// The event log over /v1/ holds exactly the trigger.
	status, body = do(t, http.MethodGet, ts.URL+"/v1/fleets/all-197/events", nil)
	if status != http.StatusOK {
		t.Fatalf("events: %d %s", status, body)
	}
	var events []*EventWire
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Window != collectors {
		t.Fatalf("event log = %s, want one trigger at window %d", body, collectors)
	}

	// Fleet status summarizes the loop: all windows consumed, one trigger.
	status, body = do(t, http.MethodGet, ts.URL+"/v1/fleets/all-197", nil)
	if status != http.StatusOK {
		t.Fatalf("status: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Windows != collectors+1 || st.Triggers != 1 || st.LastTrigger != collectors {
		t.Errorf("fleet status = %+v, want %d windows and 1 trigger at window %d",
			st, collectors+1, collectors)
	}

	// /metrics reflects the trigger.
	status, body = do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`kairos_windows_ingested_total{fleet="all-197"} 5`,
		`kairos_triggers_total{fleet="all-197"} 1`,
		`kairos_resolve_duration_seconds_count{fleet="all-197"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}
