package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Replay equals live: a fleet recovered from a snapshot taken at any point
// of its history, plus the journal after it, is the fleet the live server
// had — the same status, plan, event log, ack ring, detector and forecast
// state — and it goes on to answer new windows exactly as a server that
// never restarted does.

// scheduleOp is one operation of a replay schedule: a registration, or a
// window posted to a fleet. key is the window's start_unix (0 for
// registrations and unstamped windows).
type scheduleOp struct {
	fleet    string
	register bool
	body     []byte
	key      int64
}

// partialWindow is a stamped 4-workload window at scale with workload
// omit left out (omit < 0 keeps all four).
func partialWindow(scale float64, key int64, omit int) []byte {
	wls := testWorkloads(4, 8, scale)
	for i := range wls {
		wls[i].StartUnix = key
	}
	if omit >= 0 {
		wls = append(wls[:omit], wls[omit+1:]...)
	}
	return mustJSON(WindowRequest{Workloads: wls})
}

// replaySchedule is a seeded schedule of n operations over two 4-workload
// fleets: p registers first and q a few operations in; each window is
// quiet, drifted (to a new load level), partial (drifted, one workload
// omitted), a resend of an earlier stamped window, or unstamped. tail is
// three more windows for p: drifted, partial and quiet.
func replaySchedule(seed int64, n int) (ops, tail []scheduleOp) {
	rng := rand.New(rand.NewSource(seed))
	levels := []float64{1, 1.3, 1.6}
	level := map[string]int{} // each fleet's index into levels
	var sent []scheduleOp
	next := int64(1000)
	window := func(id, kind string) scheduleOp {
		next += 100
		switch kind {
		case "drifted", "partial":
			for was := level[id]; level[id] == was; {
				level[id] = rng.Intn(len(levels))
			}
		}
		scale := levels[level[id]] * (1 + 0.002*rng.Float64())
		switch kind {
		case "partial":
			return scheduleOp{fleet: id, body: partialWindow(scale, next, rng.Intn(4)), key: next}
		case "unstamped":
			return scheduleOp{fleet: id, body: partialWindow(scale, 0, -1)}
		}
		return scheduleOp{fleet: id, body: partialWindow(scale, next, -1), key: next}
	}
	fleets := []string{"p"}
	ops = append(ops, scheduleOp{fleet: "p", register: true, body: registerBody("p", 4, 8)})
	for len(ops) < n {
		if len(ops) == 4 {
			fleets = append(fleets, "q")
			ops = append(ops, scheduleOp{fleet: "q", register: true, body: registerBody("q", 4, 8)})
			continue
		}
		id := fleets[rng.Intn(len(fleets))]
		kind := []string{"quiet", "drifted", "partial", "resent", "unstamped"}[rng.Intn(5)]
		op := window(id, kind)
		if kind == "resent" && len(sent) > 0 {
			op = sent[rng.Intn(len(sent))]
		} else if op.key != 0 {
			sent = append(sent, op)
		}
		ops = append(ops, op)
	}
	for _, kind := range []string{"drifted", "partial", "quiet"} {
		tail = append(tail, window("p", kind))
	}
	return ops, tail
}

// post applies one operation and returns its answer.
func post(t *testing.T, s *Server, op scheduleOp) []byte {
	t.Helper()
	if op.register {
		return mustServe(t, s, http.MethodPost, "/v1/fleets", op.body, http.StatusCreated)
	}
	return mustServe(t, s, http.MethodPost, "/v1/fleets/"+op.fleet+"/windows", op.body, http.StatusOK)
}

// fleetCapture is what a restart must keep of a fleet.
type fleetCapture struct {
	status, plan, events, checkpoint []byte
	failures                         int64
}

func captureFleet(t *testing.T, s *Server, id string) fleetCapture {
	t.Helper()
	s.mu.Lock()
	sess := s.fleets[id]
	s.mu.Unlock()
	cp := sess.fleet.Checkpoint()
	b, err := json.Marshal(FleetSnapshot{
		Incumbent: cp.Incumbent,
		Baseline:  fromWorkloads(cp.Baseline),
		History:   fromHistory(cp.History),
		Detector:  DetectorWire{Windows: cp.Windows, Armed: cp.Armed, Cooldown: cp.Cooldown},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fleetCapture{
		status:     mustServe(t, s, http.MethodGet, "/v1/fleets/"+id, nil, http.StatusOK),
		plan:       mustServe(t, s, http.MethodGet, "/v1/fleets/"+id+"/plan", nil, http.StatusOK),
		events:     mustServe(t, s, http.MethodGet, "/v1/fleets/"+id+"/events", nil, http.StatusOK),
		checkpoint: b,
		failures:   sess.failures.Load(),
	}
}

// TestReplayEqualsLiveAtEverySnapshot runs a seeded schedule with a
// snapshot after each of its operations in turn, restarts, and compares
// the recovered server with the live one it replaced: status, plan, event
// log bytes, the ack of every stamped window resent, the checkpoint and
// the failure streak. Then the recovered server must answer three more
// windows, and log their events, as a server that never restarted does.
func TestReplayEqualsLiveAtEverySnapshot(t *testing.T) {
	ops, tail := replaySchedule(37, 24)
	fleets := []string{"p", "q"}

	// The reference: the whole schedule and the tail, never restarted.
	ref, err := openDir(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	var partialTriggers int
	for _, op := range ops {
		var ack WindowResponse
		if err := json.Unmarshal(post(t, ref, op), &ack); err != nil {
			t.Fatal(err)
		}
		if !op.register && ack.Triggered && !ack.Duplicate && bytes.Count(op.body, []byte(`"name"`)) < 4 {
			partialTriggers++
		}
	}
	if partialTriggers == 0 {
		t.Fatal("the schedule has no trigger on a partial window")
	}
	refEvents := map[string][]byte{}
	for _, id := range fleets {
		refEvents[id] = mustServe(t, ref, http.MethodGet, "/v1/fleets/"+id+"/events", nil, http.StatusOK)
	}
	var refTail [][]byte
	for _, op := range tail {
		refTail = append(refTail, post(t, ref, op))
	}
	refTailEvents := mustServe(t, ref, http.MethodGet, "/v1/fleets/p/events", nil, http.StatusOK)
	if err := ref.Kill(); err != nil {
		t.Fatal(err)
	}

	for at := range ops {
		dir := t.TempDir()
		s, err := openDir(dir, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		acks := map[string][]byte{} // fleet/key → the window's first answer
		for i, op := range ops {
			out := post(t, s, op)
			if k := fmt.Sprintf("%s/%d", op.fleet, op.key); op.key != 0 && acks[k] == nil {
				acks[k] = out
			}
			if i == at {
				if err := s.snapshot(); err != nil {
					t.Fatalf("snapshot after operation %d: %v", at, err)
				}
			}
		}
		live := map[string]fleetCapture{}
		for _, id := range fleets {
			live[id] = captureFleet(t, s, id)
			if !bytes.Equal(live[id].events, refEvents[id]) {
				t.Fatalf("snapshot after operation %d: fleet %s logged %s, the reference %s", at, id, live[id].events, refEvents[id])
			}
		}
		if err := s.Kill(); err != nil {
			t.Fatal(err)
		}

		rs, err := openDir(dir, t.Logf)
		if err != nil {
			t.Fatalf("restart after a snapshot after operation %d: %v", at, err)
		}
		label := func(what, id string) string {
			return fmt.Sprintf("snapshot after operation %d, fleet %s: %s", at, id, what)
		}
		for _, id := range fleets {
			got, want := captureFleet(t, rs, id), live[id]
			if !bytes.Equal(got.status, want.status) {
				t.Errorf("%s %s, live %s", label("status", id), got.status, want.status)
			}
			samePlan(t, label("plan", id), got.plan, want.plan)
			if !bytes.Equal(got.events, want.events) {
				t.Errorf("%s %s, live %s", label("events", id), got.events, want.events)
			}
			if !bytes.Equal(got.checkpoint, want.checkpoint) {
				t.Errorf("%s differs from the live one", label("checkpoint", id))
			}
			if got.failures != want.failures {
				t.Errorf("%s %d, live %d", label("failure streak", id), got.failures, want.failures)
			}
		}
		for _, op := range ops {
			if op.key == 0 {
				continue
			}
			var got, want WindowResponse
			if err := json.Unmarshal(post(t, rs, op), &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(acks[fmt.Sprintf("%s/%d", op.fleet, op.key)], &want); err != nil {
				t.Fatal(err)
			}
			if !got.Duplicate || got.Window != want.Window || got.Triggered != want.Triggered {
				t.Fatalf("%s resent after the restart: %+v, live ack %+v", label(fmt.Sprintf("window %d", op.key), op.fleet), got, want)
			}
		}
		for i, op := range tail {
			if got := post(t, rs, op); !bytes.Equal(got, refTail[i]) {
				t.Fatalf("%s %s, never restarted %s", label(fmt.Sprintf("tail window %d", i), "p"), got, refTail[i])
			}
		}
		if got := mustServe(t, rs, http.MethodGet, "/v1/fleets/p/events", nil, http.StatusOK); !bytes.Equal(got, refTailEvents) {
			t.Fatalf("%s %s, never restarted %s", label("events after the tail", "p"), got, refTailEvents)
		}
		if err := rs.Kill(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPartialWindowTriggerSurvivesRestart: a drifted window that omits one
// of four registered workloads, after a full one, re-solves all four, and
// after a graceful Close — whose snapshot holds both windows in the
// forecast history — the server restarts and serves a plan of four
// workloads.
func TestPartialWindowTriggerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("p", 4, 8), http.StatusCreated)
	mustServe(t, s, http.MethodPost, "/v1/fleets/p/windows", partialWindow(1.001, 500, -1), http.StatusOK)
	var ack WindowResponse
	if err := json.Unmarshal(mustServe(t, s, http.MethodPost, "/v1/fleets/p/windows", partialWindow(1.3, 1000, 3), http.StatusOK), &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Triggered {
		t.Fatalf("partial drifted window acked %+v, want a trigger", ack)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatalf("restart after a partial trigger: %v", err)
	}
	defer rs.Close()
	var plan PlanWire
	if err := json.Unmarshal(mustServe(t, rs, http.MethodGet, "/v1/fleets/p/plan", nil, http.StatusOK), &plan); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range plan.Assignments {
		names[a.Workload] = true
	}
	if len(names) != 4 {
		t.Fatalf("recovered plan places workloads %v, want all 4", names)
	}
	mustServe(t, rs, http.MethodPost, "/v1/fleets/p/windows", partialWindow(1.3, 2000, -1), http.StatusOK)
}

// TestFleetTurnReadersDuringWindows: the fleet's status, event log and
// /metrics series are read without its turn while windows apply. One
// goroutine posts drifted and quiet windows in turn; another reads. Every
// scrape's re-solve histogram has monotonic buckets whose +Inf equals its
// _count, and neither the event log nor the trigger count ever shrinks.
func TestFleetTurnReadersDuringWindows(t *testing.T) {
	s := New(t.Logf)
	defer s.Close()
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("p", 4, 8), http.StatusCreated)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 24; i++ {
			scale := []float64{1, 1.3}[i%2]
			status, body := serve(t, s, http.MethodPost, "/v1/fleets/p/windows", partialWindow(scale, int64(1000+100*i), -1))
			if status != http.StatusOK {
				t.Errorf("window %d: %d %s", i, status, body)
				return
			}
		}
	}()
	events, triggers, scrapes := 0, 0, 0
	for reading := true; reading; scrapes++ {
		select {
		case <-done:
			reading = false // one more read after the last window
		default:
		}
		var got []EventWire
		if err := json.Unmarshal(mustServe(t, s, http.MethodGet, "/v1/fleets/p/events", nil, http.StatusOK), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) < events {
			t.Fatalf("event log shrank from %d to %d", events, len(got))
		}
		events = len(got)
		var st FleetStatus
		if err := json.Unmarshal(mustServe(t, s, http.MethodGet, "/v1/fleets/p", nil, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		if st.Triggers < triggers {
			t.Fatalf("trigger count fell from %d to %d", triggers, st.Triggers)
		}
		triggers = st.Triggers
		checkHistogram(t, mustServe(t, s, http.MethodGet, "/metrics", nil, http.StatusOK))
	}
	wg.Wait()
	if events == 0 {
		t.Fatal("no window triggered a re-solve")
	}
	t.Logf("%d reads, %d events", scrapes, events)
}

// checkHistogram checks every fleet's re-solve histogram in a scrape:
// cumulative buckets never decrease, and +Inf is _count.
func checkHistogram(t *testing.T, scrape []byte) {
	t.Helper()
	const hist = "kairos_resolve_duration_seconds"
	last, inf := map[string]int64{}, map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(scrape))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, hist) {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		fleet := name[strings.Index(name, `fleet="`)+7:]
		fleet = fleet[:strings.IndexByte(fleet, '"')]
		switch {
		case strings.HasPrefix(name, hist+"_bucket"):
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if n < last[fleet] {
				t.Fatalf("bucket %s = %d below the one before it (%d):\n%s", name, n, last[fleet], scrape)
			}
			last[fleet] = n
			if strings.Contains(name, `le="+Inf"`) {
				inf[fleet] = n
			}
		case strings.HasPrefix(name, hist+"_count"):
			if n, err := strconv.ParseInt(value, 10, 64); err != nil || n != inf[fleet] {
				t.Fatalf("%s = %s, +Inf bucket %d:\n%s", name, value, inf[fleet], scrape)
			}
		}
	}
}
