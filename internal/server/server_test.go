package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kairos/internal/fleet"
	"kairos/internal/journal"
	"kairos/internal/unit"
)

// testWorkloads builds n wire workloads of T samples whose CPU sits at
// base·scale — scale 1.0 reproduces the registered baseline, larger
// scales are drifted observations.
func testWorkloads(n, T int, scale float64) []WorkloadWire {
	out := make([]WorkloadWire, n)
	for i := range out {
		base := (0.10 + 0.02*float64(i%5)) * scale
		cpu := make([]float64, T)
		ram := make([]float64, T)
		for t := range cpu {
			cpu[t] = base
			ram[t] = (4e9 + 1e9*float64(i%3)) * scale
		}
		out[i] = WorkloadWire{
			Name:        fmt.Sprintf("db-%02d", i),
			StepSeconds: 300,
			CPU:         cpu,
			RAMBytes:    ram,
		}
	}
	return out
}

// registerBody builds a registration request for a small synthetic fleet.
func registerBody(id string, n, T int) []byte {
	return stepRegisterBody(id, n, T, 300)
}

// stepRegisterBody is registerBody with every workload sampled every step
// seconds.
func stepRegisterBody(id string, n, T int, step float64) []byte {
	req := RegisterRequest{ID: id, Workloads: testWorkloads(n, T, 1.0), AutoMachines: &AutoMachines{Count: n}}
	for i := range req.Workloads {
		req.Workloads[i].StepSeconds = step
	}
	return mustJSON(req)
}

// newTestServer starts a control plane on an httptest listener.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues a request and returns status plus body.
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestRegisterEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/fleets"

	tests := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed JSON", `{"id": "x", "workloads": [`, http.StatusBadRequest},
		{"missing id", `{"workloads": [], "auto_machines": {"count": 1}}`, http.StatusBadRequest},
		{"id with slash", `{"id": "a/b", "workloads": [], "auto_machines": {"count": 1}}`, http.StatusBadRequest},
		{"no workloads", `{"id": "x", "auto_machines": {"count": 1}}`, http.StatusBadRequest},
		{"no machines", string(mustJSON(RegisterRequest{ID: "x", Workloads: testWorkloads(2, 4, 1)})), http.StatusBadRequest},
		{"machines and auto_machines", string(mustJSON(RegisterRequest{
			ID: "x", Workloads: testWorkloads(2, 4, 1),
			Machines:     []MachineWire{{CPUCapacity: 1, RAMBytes: 96e9}},
			AutoMachines: &AutoMachines{Count: 2},
		})), http.StatusBadRequest},
		{"unnamed workload", `{"id": "x", "workloads": [{"cpu": [0.1], "ram_bytes": [1e9]}], "auto_machines": {"count": 1}}`, http.StatusBadRequest},
		{"missing ram series", `{"id": "x", "workloads": [{"name": "a", "cpu": [0.1]}], "auto_machines": {"count": 1}}`, http.StatusBadRequest},
		{"duplicate workload names", string(mustJSON(RegisterRequest{
			ID:        "x",
			Workloads: append(testWorkloads(1, 4, 1), testWorkloads(1, 4, 1)...),
			AutoMachines: &AutoMachines{
				Count: 2,
			},
		})), http.StatusBadRequest},
		// Steps with no positive nanosecond form: below half a nanosecond,
		// beyond a time.Duration.
		{"step below a nanosecond", string(stepRegisterBody("x", 2, 4, 1e-10)), http.StatusBadRequest},
		{"step beyond a duration", string(stepRegisterBody("x", 2, 4, 1e300)), http.StatusBadRequest},
		{"zero-capacity machine", string(mustJSON(RegisterRequest{
			ID: "x", Workloads: testWorkloads(2, 4, 1),
			Machines: []MachineWire{{CPUCapacity: 0, RAMBytes: 96e9}, {CPUCapacity: 1, RAMBytes: 96e9}},
		})), http.StatusBadRequest},
		// Fields whose value, not the body, sizes the work: refused before
		// anything is allocated for them.
		{"auto_machines beyond any slice", tinyRegistration(`{"count": 1125899906842624}`, 1), http.StatusBadRequest},
		{"auto_machines beyond the machines a body carries", tinyRegistration(`{"count": 2000000}`, 1), http.StatusBadRequest},
		{"replicas beyond the cap", tinyRegistration(`{"count": 2000}`, 2000), http.StatusBadRequest},
		{"happy path", string(registerBody("alpha", 4, 8)), http.StatusCreated},
		{"double register", string(registerBody("alpha", 4, 8)), http.StatusConflict},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, http.MethodPost, base, []byte(tc.body))
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			if tc.status == http.StatusBadRequest {
				if status, _ := do(t, http.MethodGet, base+"/x", nil); status != http.StatusNotFound {
					t.Errorf("a refused registration left fleet x answering %d", status)
				}
			}
			if tc.status == http.StatusCreated {
				var st FleetStatus
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}
				if st.ID != "alpha" || st.Workloads != 4 || st.K < 1 || !st.Feasible {
					t.Errorf("register response = %+v", st)
				}
			}
		})
	}
}

// TestAutoMachinesAreTheTargetMachine: auto_machines is shorthand for
// fleet.TargetMachine, field for field, with its default disk budget and
// headroom when the request names neither, and with the request's when it
// does.
func TestAutoMachinesAreTheTargetMachine(t *testing.T) {
	for _, tc := range []struct {
		am       AutoMachines
		disk     unit.Bps
		headroom unit.Frac
	}{
		{AutoMachines{Count: 3}, fleet.TargetDiskWriteBps, fleet.TargetHeadroom},
		{AutoMachines{Count: 2, DiskWriteBps: 80e6, Headroom: 0.1}, 80e6, 0.1},
	} {
		got, err := toMachines(&RegisterRequest{AutoMachines: &tc.am})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.am.Count {
			t.Fatalf("%+v: %d machines, want %d", tc.am, len(got), tc.am.Count)
		}
		for i, m := range got {
			want := fleet.TargetMachine(fmt.Sprintf("target-%02d", i), tc.disk, tc.headroom)
			if m != want {
				t.Errorf("%+v: machine %d = %+v, want %+v", tc.am, i, m, want)
			}
		}
	}
}

// TestCheckRegisterSizes: the caps themselves are accepted, one past them
// refused.
func TestCheckRegisterSizes(t *testing.T) {
	for _, tc := range []struct {
		count, replicas int
		ok              bool
	}{{maxMachines, maxReplicas, true}, {maxMachines + 1, 1, false}, {1, maxReplicas + 1, false}} {
		req := &RegisterRequest{ID: "x", Workloads: []WorkloadWire{{Name: "a", Replicas: tc.replicas}}, AutoMachines: &AutoMachines{Count: tc.count}}
		if err := checkRegister(req); (err == nil) != tc.ok {
			t.Errorf("count %d, replicas %d: err = %v, want ok=%v", tc.count, tc.replicas, err, tc.ok)
		}
	}
}

// TestRegisterRefusesBadDriftOptions: drift options the detector would
// refuse, and a history past maxHistory, answer 400 at registration and
// journal nothing; a history at the cap registers.
func TestRegisterRefusesBadDriftOptions(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { ts.Close(); s.Kill() }()
	register := func(id string, opt OptionsWire) (int, []byte) {
		req := RegisterRequest{ID: id, Workloads: testWorkloads(3, 6, 1.0), AutoMachines: &AutoMachines{Count: 3}, Options: opt}
		return do(t, http.MethodPost, ts.URL+"/v1/fleets", mustJSON(req))
	}
	minusOne := -1
	for i, tc := range []struct {
		name string
		opt  OptionsWire
	}{
		{"negative cooldown", OptionsWire{Cooldown: &minusOne}},
		{"negative history", OptionsWire{History: -1}},
		{"negative min_workloads", OptionsWire{MinWorkloads: -1}},
		{"negative drift_threshold", OptionsWire{DriftThreshold: -1}},
		{"history past the cap", OptionsWire{History: maxHistory + 1}},
	} {
		if status, body := register(fmt.Sprintf("bad%d", i), tc.opt); status != http.StatusBadRequest {
			t.Errorf("%s: registration answered %d %s, want 400", tc.name, status, body)
		}
	}
	if status, body := register("capped", OptionsWire{History: maxHistory}); status != http.StatusCreated {
		t.Fatalf("history at the cap: registration answered %d %s, want 201", status, body)
	}
	ts.Close()
	s.Kill()
	if records := journalRecords(t, dir); len(records) != 1 {
		t.Fatalf("journal holds %d records, want only the registration at the cap", len(records))
	}
}

// tinyRegistration is a one-workload registration of fleet x with the
// given auto_machines object and replicas.
func tinyRegistration(autoMachines string, replicas int) string {
	return fmt.Sprintf(`{"id": "x", "workloads": [{"name": "a", "cpu": [0.1, 0.2], "ram_bytes": [1e9, 1e9], "replicas": %d}], "auto_machines": %s}`,
		replicas, autoMachines)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func TestWindowEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("beta", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}

	windowBody := func(scale float64) []byte {
		return mustJSON(WindowRequest{Workloads: testWorkloads(4, 8, scale)})
	}
	tests := []struct {
		name      string
		url       string
		body      []byte
		status    int
		triggered bool
	}{
		{"unknown fleet", ts.URL + "/v1/fleets/nope/windows", windowBody(1.0), http.StatusNotFound, false},
		{"malformed JSON", ts.URL + "/v1/fleets/beta/windows", []byte(`{"workloads": [`), http.StatusBadRequest, false},
		{"unknown workload name", ts.URL + "/v1/fleets/beta/windows",
			mustJSON(WindowRequest{Workloads: testWorkloads(5, 8, 1.0)}), http.StatusUnprocessableEntity, false},
		{"quiet window holds", ts.URL + "/v1/fleets/beta/windows", windowBody(1.002), http.StatusOK, false},
		{"drifted window triggers", ts.URL + "/v1/fleets/beta/windows", windowBody(1.25), http.StatusOK, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, http.MethodPost, tc.url, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			if status != http.StatusOK {
				return
			}
			var resp WindowResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Triggered != tc.triggered {
				t.Errorf("triggered = %v, want %v", resp.Triggered, tc.triggered)
			}
			if tc.triggered && (resp.Event == nil || resp.Event.K < 1) {
				t.Errorf("triggered response missing event: %+v", resp)
			}
		})
	}

	// The rejected window (unknown workload) must not have advanced the
	// loop: 2 valid windows consumed, 1 trigger.
	status, body := do(t, http.MethodGet, ts.URL+"/v1/fleets/beta", nil)
	if status != http.StatusOK {
		t.Fatalf("status query: %d %s", status, body)
	}
	var st FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Windows != 2 || st.Triggers != 1 || st.LastTrigger != 1 {
		t.Errorf("fleet status = %+v, want 2 windows, 1 trigger at window 1", st)
	}
}

// getPlan is GET /v1/fleets/{id}/plan on url.
func getPlan(t *testing.T, url, id string) PlanWire {
	t.Helper()
	status, body := do(t, http.MethodGet, url+"/v1/fleets/"+id+"/plan", nil)
	if status != http.StatusOK {
		t.Fatalf("plan of %s: %d %s", id, status, body)
	}
	var plan PlanWire
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	return plan
}

// planMachinesErr says what is wrong with the machines of a plan on a
// fleet of the given machine count, if anything: every assignment names a
// workload and one of the fleet's machines, and the plan uses K of them.
// On machines of several classes those need not be machines 0 to K-1.
func planMachinesErr(plan PlanWire, machines int) error {
	used := map[int]bool{}
	for _, a := range plan.Assignments {
		if a.Workload == "" || a.Machine < 0 || a.Machine >= machines || a.MachineName == "" {
			return fmt.Errorf("assignment %+v on a fleet of %d machines", a, machines)
		}
		used[a.Machine] = true
	}
	if len(used) != plan.K {
		return fmt.Errorf("plan of K %d uses %d machines", plan.K, len(used))
	}
	return nil
}

func TestQueryEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	for _, id := range []string{"q1", "q2"} {
		if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody(id, 3, 6)); status != http.StatusCreated {
			t.Fatalf("register %s: %d %s", id, status, body)
		}
	}

	t.Run("list", func(t *testing.T) {
		status, body := do(t, http.MethodGet, ts.URL+"/v1/fleets", nil)
		if status != http.StatusOK {
			t.Fatalf("list: %d %s", status, body)
		}
		var fleets []FleetStatus
		if err := json.Unmarshal(body, &fleets); err != nil {
			t.Fatal(err)
		}
		if len(fleets) != 2 || fleets[0].ID != "q1" || fleets[1].ID != "q2" {
			t.Errorf("list = %+v, want [q1 q2]", fleets)
		}
	})

	t.Run("plan", func(t *testing.T) {
		plan := getPlan(t, ts.URL, "q1")
		if plan.K < 1 || !plan.Feasible || len(plan.Assignments) != 3 {
			t.Errorf("plan = %+v", plan)
		}
		if err := planMachinesErr(plan, fleetStatus(t, ts.URL, "q1").Machines); err != nil {
			t.Error(err)
		}
	})

	// Two machine classes: the plan fits the three workloads on the large
	// machine, last in the list, so its one machine is not machine 0.
	t.Run("plan on two machine classes", func(t *testing.T) {
		req := RegisterRequest{ID: "q3", Workloads: testWorkloads(3, 6, 1.0), Machines: []MachineWire{
			{Name: "small-a", CPUCapacity: 0.25, RAMBytes: 8e9, DiskWriteBps: 50e6},
			{Name: "small-b", CPUCapacity: 0.25, RAMBytes: 8e9, DiskWriteBps: 50e6},
			{Name: "large", CPUCapacity: 1, RAMBytes: 96e9, DiskWriteBps: 50e6},
		}}
		if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", mustJSON(req)); status != http.StatusCreated {
			t.Fatalf("register: %d %s", status, body)
		}
		plan := getPlan(t, ts.URL, "q3")
		if err := planMachinesErr(plan, len(req.Machines)); err != nil {
			t.Error(err)
		}
		beyondK := false
		for _, a := range plan.Assignments {
			beyondK = beyondK || a.Machine >= plan.K
		}
		if plan.K != 1 || !beyondK {
			t.Errorf("plan %+v: want K 1 on the large machine, an index past K", plan)
		}
	})

	t.Run("events empty", func(t *testing.T) {
		status, body := do(t, http.MethodGet, ts.URL+"/v1/fleets/q1/events", nil)
		if status != http.StatusOK {
			t.Fatalf("events: %d %s", status, body)
		}
		var events []*EventWire
		if err := json.Unmarshal(body, &events); err != nil {
			t.Fatal(err)
		}
		if len(events) != 0 {
			t.Errorf("events = %+v, want none", events)
		}
	})

	t.Run("unknown ids 404", func(t *testing.T) {
		for _, path := range []string{"/v1/fleets/zz", "/v1/fleets/zz/plan", "/v1/fleets/zz/events"} {
			if status, _ := do(t, http.MethodGet, ts.URL+path, nil); status != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404", path, status)
			}
		}
	})

	t.Run("healthz", func(t *testing.T) {
		status, body := do(t, http.MethodGet, ts.URL+"/healthz", nil)
		if status != http.StatusOK || !strings.Contains(string(body), "ok") {
			t.Errorf("healthz = %d %q", status, body)
		}
	})

	t.Run("delete", func(t *testing.T) {
		if status, _ := do(t, http.MethodDelete, ts.URL+"/v1/fleets/q2", nil); status != http.StatusNoContent {
			t.Fatalf("delete: %d", status)
		}
		if status, _ := do(t, http.MethodGet, ts.URL+"/v1/fleets/q2", nil); status != http.StatusNotFound {
			t.Errorf("status after delete = %d, want 404", status)
		}
		if status, _ := do(t, http.MethodDelete, ts.URL+"/v1/fleets/q2", nil); status != http.StatusNotFound {
			t.Errorf("double delete = %d, want 404", status)
		}
		// Ingestion to the deleted fleet 404s; q1 is unaffected.
		status, _ := do(t, http.MethodPost, ts.URL+"/v1/fleets/q2/windows",
			mustJSON(WindowRequest{Workloads: testWorkloads(3, 6, 1.0)}))
		if status != http.StatusNotFound {
			t.Errorf("ingest after delete = %d, want 404", status)
		}
		if status, _ := do(t, http.MethodGet, ts.URL+"/v1/fleets/q1", nil); status != http.StatusOK {
			t.Errorf("q1 disturbed by q2 delete: %d", status)
		}
	})
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("m1", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	for _, scale := range []float64{1.001, 1.002, 1.3} {
		status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/m1/windows",
			mustJSON(WindowRequest{Workloads: testWorkloads(4, 8, scale)}))
		if status != http.StatusOK {
			t.Fatalf("window scale %v: %d %s", scale, status, body)
		}
	}
	status, body := do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"kairos_fleets 1",
		`kairos_windows_ingested_total{fleet="m1"} 3`,
		`kairos_triggers_total{fleet="m1"} 1`,
		`kairos_resolve_duration_seconds_count{fleet="m1"} 1`,
		`kairos_resolve_duration_seconds_bucket{fleet="m1",le="+Inf"} 1`,
		// One collector never waits for the fleet's turn.
		`kairos_windows_decoded_waiting_total{fleet="m1"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	// Fevals and migrations are plan-dependent; assert the series exist
	// with a non-negative value rather than pinning solver internals.
	for _, prefix := range []string{
		`kairos_resolve_fevals_total{fleet="m1"} `,
		`kairos_migrations_total{fleet="m1"} `,
		"\nkairos_wire_numbers_slow_total ",
		"\nkairos_wire_split_chunks_total{outcome=\"adopted\"} ",
		"\nkairos_wire_split_chunks_total{outcome=\"discarded\"} ",
	} {
		if !strings.Contains(text, prefix) {
			t.Errorf("metrics missing series %q", prefix)
		}
	}

	// A fleet id may hold any character but '/' and a space. Each is written
	// as the text format defines a label value — raw UTF-8, with only a
	// backslash, a double quote and a line feed escaped — so no id can make
	// the page unparseable for every fleet.
	ids := []string{"tab\there", "zero\u200bwidth", "ctl\x01", `quote"back\slash`, "line\nfeed"}
	for _, id := range ids {
		if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody(id, 2, 4)); status != http.StatusCreated {
			t.Fatalf("register %q: %d %s", id, status, body)
		}
	}
	if status, body = do(t, http.MethodGet, ts.URL+"/metrics", nil); status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	seen := fleetLabels(t, string(body))
	for _, id := range append(ids, "m1") {
		// Seven counter families and the histogram's 11 buckets, sum and count.
		if seen[id] != 20 {
			t.Errorf("fleet %q labels %d series, want 20", id, seen[id])
		}
	}
	if len(seen) != len(ids)+1 {
		t.Errorf("labels name %d fleets, want %d: %q", len(seen), len(ids)+1, seen)
	}
}

// fleetLabels reads the fleet label of every series on a /metrics page
// and counts the series per fleet id. It fails the test on a label value
// the text exposition format cannot parse: one with an escape other than
// \\, \" and \n, or one that does not close on its line.
func fleetLabels(t *testing.T, text string) map[string]int {
	t.Helper()
	seen := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		_, v, ok := strings.Cut(line, `{fleet="`)
		if !ok {
			continue
		}
		var id strings.Builder
	value:
		for i := 0; ; i++ {
			if i == len(v) {
				t.Fatalf("label value never closes: %q", line)
			}
			switch c := v[i]; c {
			case '"':
				break value
			case '\\':
				i++
				switch {
				case i < len(v) && v[i] == 'n':
					id.WriteByte('\n')
				case i < len(v) && (v[i] == '\\' || v[i] == '"'):
					id.WriteByte(v[i])
				default:
					t.Fatalf("label value escape the format does not have: %q", line)
				}
			default:
				id.WriteByte(c)
			}
		}
		seen[id.String()]++
	}
	return seen
}

// TestFleetMetricsFollowRegistry: a fleet's series live in its session.
// They appear, at zero, when it registers; after a restart its failure
// gauge is the streak the snapshot kept; and they leave when it is
// deregistered.
func TestFleetMetricsFollowRegistry(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("m1", 4, 8), http.StatusCreated)
	scrape := func(s *Server, want []string, absent string) {
		t.Helper()
		text := string(mustServe(t, s, http.MethodGet, "/metrics", nil, http.StatusOK))
		for _, w := range want {
			if !strings.Contains(text, w+"\n") {
				t.Errorf("metrics missing %q\n%s", w, text)
			}
		}
		if absent != "" && strings.Contains(text, absent) {
			t.Errorf("metrics still hold %q\n%s", absent, text)
		}
	}
	scrape(s, []string{
		"kairos_fleets 1",
		`kairos_windows_ingested_total{fleet="m1"} 0`,
		`kairos_resolve_failures_consecutive{fleet="m1"} 0`,
		`kairos_resolve_duration_seconds_bucket{fleet="m1",le="+Inf"} 0`,
	}, "")
	s.mu.Lock()
	sess := s.fleets["m1"]
	s.mu.Unlock()
	sess.turn <- struct{}{}
	sess.failures.Store(3)
	<-sess.turn
	if err := s.Close(); err != nil { // the snapshot keeps the streak
		t.Fatal(err)
	}

	rs, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	scrape(rs, []string{"kairos_fleets 1", `kairos_resolve_failures_consecutive{fleet="m1"} 3`}, "")
	mustServe(t, rs, http.MethodDelete, "/v1/fleets/m1", nil, http.StatusNoContent)
	scrape(rs, []string{"kairos_fleets 0"}, `fleet="m1"`)
}
