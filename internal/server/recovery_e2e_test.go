package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"kairos/internal/fleet"
	"kairos/internal/journal"
)

// TestRestartUnderConcurrentCollectors197 is the durability acceptance
// scenario end to end, under -race (see the race-server make target):
// the 197-server ALL fleet streams windows from concurrent collectors
// into a journaled control plane, the process is killed mid-operation,
// and a replacement recovers from the state directory while the same
// collectors retry their acked windows (deduplicated) and push fresh
// ones (applied) — concurrently.
func TestRestartUnderConcurrentCollectors197(t *testing.T) {
	if testing.Short() {
		t.Skip("full 197-server restart e2e; run without -short")
	}
	fl := fleet.All()
	baseline := fl.Workloads(0.7)
	if len(baseline) != 197 {
		t.Fatalf("ALL fleet has %d servers, want 197", len(baseline))
	}
	stamped := func(f float64, key int64) []byte {
		wls := wireWorkloads(baseline, f)
		for i := range wls {
			wls[i].StartUnix = key
		}
		return mustJSON(WindowRequest{Workloads: wls})
	}

	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 4)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", mustJSON(RegisterRequest{
		ID:           "all-197",
		Workloads:    wireWorkloads(baseline, 1.0),
		AutoMachines: &AutoMachines{Count: len(baseline)},
	})); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}

	// Phase 1: concurrent collectors stream quiet windows (each with its
	// own start_unix key), then one drifted window fires the re-solve.
	const collectors = 4
	acks := make(map[int64]WindowResponse)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				key := int64(1000*c + i + 1)
				status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/all-197/windows",
					stamped(1.0+0.003*float64(c%2), key))
				if status != http.StatusOK {
					t.Errorf("collector %d window %d: %d %s", c, i, status, body)
					return
				}
				var resp WindowResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acks[key] = resp
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/all-197/windows", stamped(1.12, 9001))
	if status != http.StatusOK {
		t.Fatalf("drifted window: %d %s", status, body)
	}
	var drifted WindowResponse
	if err := json.Unmarshal(body, &drifted); err != nil {
		t.Fatal(err)
	}
	if !drifted.Triggered {
		t.Fatalf("drifted window did not trigger: %s", body)
	}
	acks[9001] = drifted
	_, lastPlan := do(t, http.MethodGet, ts.URL+"/v1/fleets/all-197/plan", nil)

	// Crash: no shutdown snapshot, no final flush beyond what SyncAlways
	// already guaranteed per ack.
	ts.Close()
	s.Kill()

	// Restart. Recovery replays the journaled stream (registration,
	// snapshot from window 4, windows, the advance) before serving.
	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	status, body = do(t, http.MethodGet, rts.URL+"/v1/fleets/all-197", nil)
	if status != http.StatusOK {
		t.Fatalf("recovered status: %d %s", status, body)
	}
	var st FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Windows != len(acks) || st.Triggers != 1 {
		t.Fatalf("recovered status %+v, want %d windows and 1 trigger", st, len(acks))
	}
	_, gotPlan := do(t, http.MethodGet, rts.URL+"/v1/fleets/all-197/plan", nil)
	samePlacement(t, "recovered 197-fleet plan", gotPlan, lastPlan)

	// Recovery says where its time went: the snapshot it restored (taken at
	// window 4 or 8, so several megabytes of series) and how long decoding
	// it took, in its stats and on /metrics.
	rec := rs.recovery
	if rec == nil || rec.SnapshotBytes < 1<<20 || rec.SnapshotDecode <= 0 || rec.SnapshotDecode > rec.Elapsed {
		t.Errorf("recovery stats %+v: want a snapshot of megabytes, decoded within the replay's elapsed time", rec)
	} else {
		_, metrics := do(t, http.MethodGet, rts.URL+"/metrics", nil)
		for _, line := range []string{
			fmt.Sprintf("\nkairos_recovery_snapshot_bytes %d\n", rec.SnapshotBytes),
			fmt.Sprintf("\nkairos_recovery_snapshot_decode_seconds %g\n", rec.SnapshotDecode.Seconds()),
		} {
			if !strings.Contains(string(metrics), line) {
				t.Errorf("/metrics lacks %q", line)
			}
		}
	}

	// Phase 2, concurrent against the recovered server: every collector
	// retries its acked windows (the crash swallowed nothing — each must
	// come back as the original ack, never a re-apply), while another
	// streams fresh windows.
	keys := make([]int64, 0, len(acks))
	for k := range acks {
		keys = append(keys, k)
	}
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, key := range keys {
				if i%collectors != c {
					continue
				}
				f := 1.0 + 0.003*float64((key/1000)%2)
				if key == 9001 {
					f = 1.12
				}
				status, body := do(t, http.MethodPost, rts.URL+"/v1/fleets/all-197/windows", stamped(f, key))
				if status != http.StatusOK {
					t.Errorf("retry of acked window %d: %d %s", key, status, body)
					return
				}
				var resp WindowResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				orig := acks[key]
				mu.Unlock()
				if !resp.Duplicate || resp.Window != orig.Window || resp.Triggered != orig.Triggered {
					t.Errorf("retry of window %d = %+v, want duplicate of %+v", key, resp, orig)
				}
			}
		}(c)
	}
	const fresh = 3
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < fresh; i++ {
			// Fresh windows track the advanced plan's forecast baseline, so
			// they hold (no trigger assertions — the point is liveness).
			status, body := do(t, http.MethodPost, rts.URL+"/v1/fleets/all-197/windows",
				stamped(1.06, int64(20000+i)))
			if status != http.StatusOK {
				t.Errorf("fresh window %d: %d %s", i, status, body)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Retries changed nothing; the fresh windows advanced the counter.
	status, body = do(t, http.MethodGet, rts.URL+"/v1/fleets/all-197", nil)
	if status != http.StatusOK {
		t.Fatalf("final status: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Windows != len(acks)+fresh {
		t.Errorf("final windows = %d, want %d (retries must not re-apply)", st.Windows, len(acks)+fresh)
	}
}

// TestRecoveryStatsSayWhereTheTimeWent: beside the snapshot's size and
// decode time asserted above, a recovery reports the time spent reading
// and checksumming the snapshot file before the replay began, and the time
// its workers spent reading, checksumming and decoding the records after
// it — which, run on several cores, is no longer part of the replay's wall
// time — in its stats, its log line and /metrics.
func TestRecoveryStatsSayWhereTheTimeWent(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("st", 4, 8), http.StatusCreated)
	if err := s.Close(); err != nil { // the snapshot
		t.Fatal(err)
	}
	if s, err = openDir(dir, t.Logf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustServe(t, s, http.MethodPost, "/v1/fleets/st/windows", stampedWindow(4, 8, 1.001, int64(1000*(i+1))), http.StatusOK)
	}
	s.Kill()

	var logged []string
	rs, err := openDir(dir, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Kill()
	rec := rs.recovery
	if rec == nil || rec.SnapshotFleets != 1 || rec.Windows != 3 || rec.Records != 3 || rec.JournalRead <= 0 || rec.RecordsDecode <= 0 {
		t.Fatalf("recovery stats %+v: want 1 fleet from the snapshot, 3 window records, and time spent reading the snapshot and reading and decoding the records", rec)
	}
	if want := fmt.Sprintf("snapshot file read in %v, %d-byte snapshot decoded in %v; 3 records read and decoded in %v", rec.JournalRead, rec.SnapshotBytes, rec.SnapshotDecode, rec.RecordsDecode); len(logged) != 1 || !strings.Contains(logged[0], want) {
		t.Errorf("recovery logged %q, want one line holding %q", logged, want)
	}
	metrics := mustServe(t, rs, http.MethodGet, "/metrics", nil, http.StatusOK)
	for _, line := range []string{
		fmt.Sprintf("\nkairos_recovery_journal_read_seconds %g\n", rec.JournalRead.Seconds()),
		fmt.Sprintf("\nkairos_recovery_records_decode_seconds %g\n", rec.RecordsDecode.Seconds()),
	} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
