package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"kairos/internal/journal"
)

// Replay decodes journal records on a pool of workers ahead of the loop
// that applies them (recovery.go). These tests hold the pipeline to the
// sequential loop it replaced: the same recovered state whatever the
// worker count, the same error for the same record, and no goroutine left
// behind. They drive the handler in process, without a listener, so the
// only goroutines a server adds are its own.

// serve answers one request with s's handler.
func serve(tb testing.TB, s *Server, method, path string, body []byte) (int, []byte) {
	tb.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, rd))
	return w.Code, w.Body.Bytes()
}

// mustServe is serve for a request that has to be answered with want.
func mustServe(tb testing.TB, s *Server, method, path string, body []byte, want int) []byte {
	tb.Helper()
	status, out := serve(tb, s, method, path, body)
	if status != want {
		tb.Fatalf("%s %s: %d %s, want %d", method, path, status, out, want)
	}
	return out
}

// openDir opens a durable control plane over dir that never snapshots on
// its own, logging to logf.
func openDir(dir string, logf func(string, ...any)) (*Server, error) {
	return Open(Config{StateDir: dir, Journal: journal.Options{Sync: journal.SyncNone}, SnapshotEvery: 1 << 20, Logf: logf})
}

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// copyDir copies a state directory, keeping the first walBytes bytes of
// its journal (all of it when walBytes is negative).
func copyDir(t *testing.T, from string, walBytes int64) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range []string{"snapshot.kairos", "journal.wal"} {
		b, err := os.ReadFile(filepath.Join(from, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == "journal.wal" && walBytes >= 0 {
			b = b[:walBytes]
		}
		if err := os.WriteFile(filepath.Join(to, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// appendRaw appends payloads to dir's journal as CRC-valid records, as a
// daemon that was not running this code might have, and returns the
// journal's length before each append and the seq each record got.
func appendRaw(t *testing.T, dir string, payloads ...[]byte) (offsets []int64, seqs []uint64) {
	t.Helper()
	l, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		offsets = append(offsets, l.Stats().SizeBytes)
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return offsets, seqs
}

// sentWindow is one stamped window and what the live daemon answered it.
type sentWindow struct {
	fleet string
	key   int64
	body  []byte
	ack   WindowResponse
}

// recoveredState is everything a client can ask a recovered daemon about
// its fleets, plus what the recovery counted.
type recoveredState struct {
	List    string
	Fleets  map[string][3]string // status, placement, events
	Resends []WindowResponse
	Stats   RecoveryStats
}

// placementOf reduces a served plan to its published contract.
func placementOf(t *testing.T, plan []byte) string {
	t.Helper()
	var p PlanWire
	if err := json.Unmarshal(plan, &p); err != nil {
		t.Fatalf("%v (%s)", err, plan)
	}
	return fmt.Sprintf("K=%d feasible=%v %+v", p.K, p.Feasible, p.Assignments)
}

// recoverAt opens a copy of dir at GOMAXPROCS procs, resends every
// window and reads back every fleet.
func recoverAt(t *testing.T, dir string, procs int, fleets []string, sent []*sentWindow) recoveredState {
	t.Helper()
	var s *Server
	var err error
	atProcs(procs, func() { s, err = openDir(copyDir(t, dir, -1), t.Logf) })
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	defer s.Kill()
	got := recoveredState{Fleets: map[string][3]string{}, Stats: *s.recovery}
	// Times are not state.
	got.Stats.Elapsed, got.Stats.JournalRead, got.Stats.SnapshotDecode, got.Stats.RecordsDecode = 0, 0, 0, 0
	got.List = string(mustServe(t, s, http.MethodGet, "/v1/fleets", nil, http.StatusOK))
	for _, id := range fleets {
		status, body := serve(t, s, http.MethodGet, "/v1/fleets/"+id, nil)
		if status != http.StatusOK {
			got.Fleets[id] = [3]string{fmt.Sprint(status)}
			continue
		}
		plan := mustServe(t, s, http.MethodGet, "/v1/fleets/"+id+"/plan", nil, http.StatusOK)
		events := mustServe(t, s, http.MethodGet, "/v1/fleets/"+id+"/events", nil, http.StatusOK)
		got.Fleets[id] = [3]string{string(body), placementOf(t, plan), string(events)}
	}
	for _, w := range sent {
		var resp WindowResponse
		status, body := serve(t, s, http.MethodPost, "/v1/fleets/"+w.fleet+"/windows", w.body)
		if status != http.StatusOK {
			resp.Window = -status
		} else if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		resp.Event = nil
		got.Resends = append(got.Resends, resp)
	}
	return got
}

// TestReplayAheadMatchesSequential: one state directory holding every
// shape replay meets — a snapshot, the windows of two fleets interleaved,
// an advance, a rearm, a registration, a deregistration, a window for a
// fleet the registry does not know — recovers to the same fleets, the
// same answers and the same counts with one decoder one step ahead of
// apply, with two, and with eight.
func TestReplayAheadMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("a", 4, 8), http.StatusCreated)
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("b", 3, 6), http.StatusCreated)
	var sent []*sentWindow
	// window is a window of fleet a (4 workloads) or of any other (3).
	window := func(fleet string, scale float64, key int64) *sentWindow {
		n, T := 3, 6
		if fleet == "a" {
			n, T = 4, 8
		}
		return &sentWindow{fleet: fleet, key: key, body: stampedWindow(n, T, scale, key)}
	}
	post := func(s *Server, w *sentWindow) {
		t.Helper()
		body := mustServe(t, s, http.MethodPost, "/v1/fleets/"+w.fleet+"/windows", w.body, http.StatusOK)
		if err := json.Unmarshal(body, &w.ack); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, w)
	}
	post(s, window("a", 1.001, 100))
	post(s, window("b", 1.002, 100))
	if err := s.Close(); err != nil { // the snapshot
		t.Fatal(err)
	}

	if s, err = openDir(dir, t.Logf); err != nil {
		t.Fatal(err)
	}
	// Fleet b's solver backs off, so each window of its that fires journals a
	// rearm; fleet a advances at the first 1.3 and again on the way back.
	s.mu.Lock()
	b := s.fleets["b"]
	s.mu.Unlock()
	b.mu.Lock()
	b.backoffUntil = time.Now().Add(time.Hour)
	b.mu.Unlock()
	for i, scale := range []float64{1.001, 1.3, 1.3, 1.002} {
		key := int64(200 + 100*i)
		post(s, window("a", scale, key))
		post(s, window("b", scale, key))
	}
	if !sent[4].ack.Triggered || sent[5].ack.Triggered {
		t.Fatalf("drifted windows acked %+v and %+v, want an advance for a and a backed-off b", sent[4].ack, sent[5].ack)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("c", 3, 6), http.StatusCreated)
	post(s, window("c", 1.001, 100))
	mustServe(t, s, http.MethodDelete, "/v1/fleets/c", nil, http.StatusNoContent)
	post(s, window("a", 1.003, 900))
	s.Kill()
	// A window for a fleet no record registers: compacted away, or never there.
	appendRaw(t, dir, mustJSON(RecordWire{Window: &WindowRecord{Fleet: "ghost", Workloads: testWorkloads(3, 6, 1.0)}}))
	sent = append(sent, window("ghost", 1.0, 100))

	fleets := []string{"a", "b", "c", "ghost"}
	want := recoverAt(t, dir, 1, fleets, sent)
	if want.Stats.SnapshotFleets != 2 || want.Stats.Fleets != 2 || want.Stats.Windows != 10 ||
		want.Stats.Advances != 2 || want.Stats.Rearms != 3 || want.Stats.Healed != 0 {
		t.Fatalf("recovery counted %+v, want 2 fleets from the snapshot and 2 after it, 10 windows, 2 advances, 3 rearms", want.Stats)
	}
	for i, w := range sent {
		got := want.Resends[i]
		switch w.fleet {
		case "c", "ghost":
			if got.Window != -http.StatusNotFound {
				t.Errorf("resend to fleet %q answered %+v, want 404", w.fleet, got)
			}
		default:
			if !got.Duplicate || got.Window != w.ack.Window || got.Triggered != w.ack.Triggered {
				t.Errorf("resend of %s window %d answered %+v, live ack was %+v", w.fleet, w.key, got, w.ack)
			}
		}
	}
	for _, procs := range []int{2, 8} {
		if got := recoverAt(t, dir, procs, fleets, sent); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d recovered\n%+v\nGOMAXPROCS=1 recovered\n%+v", procs, got, want)
		}
	}
}

// TestReplayDecodeErrorIsTheFirstInOrder: two records the CRC vouches for
// and the decoder refuses, with a good record between them. Open fails on
// the first, by seq and with the sequential loop's message, whatever the
// worker count — and not before every record ahead of it was applied,
// which the skipped-window log line of the record just before it shows.
func TestReplayDecodeErrorIsTheFirstInOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("a", 4, 8), http.StatusCreated)
	for i := 0; i < 6; i++ {
		mustServe(t, s, http.MethodPost, "/v1/fleets/a/windows", stampedWindow(4, 8, 1.001, int64(100*(i+1))), http.StatusOK)
	}
	s.Kill()
	ghost := mustJSON(RecordWire{Window: &WindowRecord{Fleet: "ghost", Workloads: testWorkloads(3, 6, 1.0)}})
	good := mustJSON(RecordWire{Window: &WindowRecord{Fleet: "a", Workloads: testWorkloads(4, 8, 1.002)}})
	first, second := []byte(`{"window":{"fleet":"a","workloads":[{"cpu":[1,]}]}}`), []byte(`{"rearm":`)
	offsets, seqs := appendRaw(t, dir, ghost, first, good, second, good)

	_, firstErr := decodeRecord(first)
	if firstErr == nil {
		t.Fatal("the first bad payload decodes")
	}
	if _, err := decodeRecord(second); err == nil || err.Error() == firstErr.Error() {
		t.Fatalf("the second bad payload fails with %v, want an error of its own", err)
	}
	want := fmt.Sprintf("server: recovering from %%s: decoding journal record %d: %v", seqs[1], firstErr)
	applied := fmt.Sprintf("journal record %d: window for unknown fleet %q skipped", seqs[0], "ghost")
	for _, procs := range []int{1, 2, 8} {
		var logged []string
		at := copyDir(t, dir, -1)
		atProcs(procs, func() {
			s, err = openDir(at, func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
			})
		})
		if err == nil {
			s.Kill()
			t.Fatalf("GOMAXPROCS=%d: a journal holding an undecodable record opened", procs)
		}
		if got := fmt.Sprintf(want, at); err.Error() != got {
			t.Errorf("GOMAXPROCS=%d: Open failed with\n%v\nwant\n%s", procs, err, got)
		}
		if len(logged) != 1 || logged[0] != applied {
			t.Errorf("GOMAXPROCS=%d: replay logged %q, want only %q: every record before the bad one applied, none after", procs, logged, applied)
		}
	}

	// Cut before the first bad record, the directory opens, with the six
	// windows and the ghost's behind it.
	if s, err = openDir(copyDir(t, dir, offsets[1]), t.Logf); err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if s.recovery.Windows != 6 || s.recovery.Fleets != 1 {
		t.Errorf("the journal cut before the bad record recovered %+v, want 1 fleet and 6 windows", s.recovery)
	}
}

// TestReplayLeavesNoGoroutines: the decode workers are gone when Open
// returns, replay having succeeded or failed, on a journal long enough —
// 64 records against a look-ahead of 2 per worker — that the workers are
// stopped with the apply loop mid-journal.
func TestReplayLeavesNoGoroutines(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("a", 4, 8), http.StatusCreated)
	for i := 0; i < 63; i++ {
		mustServe(t, s, http.MethodPost, "/v1/fleets/a/windows", stampedWindow(4, 8, 1.001, int64(100*(i+1))), http.StatusOK)
	}
	s.Kill()
	bad := copyDir(t, dir, -1)
	_, seqs := appendRaw(t, bad, []byte(`{"window":`))
	for i := 0; i < 8; i++ {
		appendRaw(t, bad, mustJSON(RecordWire{Rearm: &RearmRecord{Fleet: "a"}}))
	}

	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			base := runtime.NumGoroutine()
			s, err := openDir(dir, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if s.recovery.Windows != 63 {
				t.Errorf("GOMAXPROCS=%d: replayed %d windows, want 63", procs, s.recovery.Windows)
			}
			s.Kill()
			if n := settledGoroutines(base); n != base {
				t.Errorf("GOMAXPROCS=%d: %d goroutines after Open and Kill, %d before", procs, n, base)
			}
			_, err = openDir(bad, t.Logf)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("decoding journal record %d:", seqs[0])) {
				t.Fatalf("GOMAXPROCS=%d: the journal with a bad record 64 opened with %v", procs, err)
			}
			if n := settledGoroutines(base); n != base {
				t.Errorf("GOMAXPROCS=%d: %d goroutines after a failed Open, %d before", procs, n, base)
			}
		})
	}
}

// TestReplayReadsOneRecordPerWorker: the decode stage reads a 64-record
// journal into one payload buffer per worker — one with the apply loop
// alone, four with three helpers — not into a buffer of the log's size,
// and what it hands the apply loop, record by record in journal order, is
// what decoding each record's payload on its own gives.
func TestReplayReadsOneRecordPerWorker(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("a", 4, 8), http.StatusCreated)
	// Stamps of four digits make every window record the same size.
	for i := 0; i < 63; i++ {
		mustServe(t, s, http.MethodPost, "/v1/fleets/a/windows", stampedWindow(4, 8, 1.001, int64(1000+100*i)), http.StatusOK)
	}
	s.Kill()
	want := journalRecords(t, dir)
	if len(want) != 64 {
		t.Fatalf("%d journal records, want 64", len(want))
	}
	for _, r := range want[1:] {
		if len(r.Payload) != len(want[1].Payload) || len(r.Payload) > len(want[0].Payload) {
			t.Fatalf("window records of %d and %d bytes after a %d-byte registration: a worker's buffer would grow", len(r.Payload), len(want[1].Payload), len(want[0].Payload))
		}
	}

	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			rd, err := journal.OpenReader(dir, journal.Options{Sync: journal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			a := startDecodeAhead(rd)
			defer a.stop()
			workers := len(a.slots) / decodeAheadPerWorker
			if workers != procs {
				t.Fatalf("GOMAXPROCS=%d: %d decode workers", procs, workers)
			}
			for i := 0; ; i++ {
				d := a.take(i)
				if d.end {
					if d.err != nil || i != len(want) {
						t.Fatalf("GOMAXPROCS=%d: the log ended after %d records (%v), want %d", procs, i, d.err, len(want))
					}
					break
				}
				rw, err := decodeRecord(want[i].Payload)
				if d.err != nil || err != nil || d.seq != want[i].Seq || !reflect.DeepEqual(d.rw, rw) {
					t.Fatalf("GOMAXPROCS=%d: record %d came back as seq %d (%v), want seq %d decoded on its own", procs, i, d.seq, d.err, want[i].Seq)
				}
			}
			if n := a.buffers.Load(); n > int64(workers) {
				t.Errorf("GOMAXPROCS=%d: %d decode workers read the log into %d payload buffers", procs, workers, n)
			}
		})
	}
}

// BenchmarkOpenReplay197 is the restart a crash leaves the daemon: Open on
// a state directory holding the ALL-197 fleet's snapshot and a journal of
// eight windows and the advance the sixth led to, then Kill, which leaves
// the directory as it was. Run at -cpu 1,2 (make bench-hot): the apply
// loop reading and decoding each record itself, and the pool.
// windows-replayed is there so a run that replayed nothing cannot pass for
// a fast one; allocs/op and B/op at -cpu 1 are pinned in BENCH_counts.json
// (make bench-counts), so decoding ahead cannot pay for wall time with
// garbage per record, nor the log be read whole, unnoticed.
func BenchmarkOpenReplay197(b *testing.B) {
	dir := b.TempDir()
	quiet := func(string, ...any) {}
	s, err := openDir(dir, quiet)
	if err != nil {
		b.Fatal(err)
	}
	mustServe(b, s, http.MethodPost, "/v1/fleets", register197(b), http.StatusCreated)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if s, err = openDir(dir, quiet); err != nil {
		b.Fatal(err)
	}
	const windows, driftAt = 8, 6
	for i := 1; i <= windows; i++ {
		wls := all197(1.003)
		if i >= driftAt {
			wls = all197(1.12)
		}
		for j := range wls {
			wls[j].StartUnix = int64(1_700_000_000 + 300*i)
		}
		var ack WindowResponse
		body := mustServe(b, s, http.MethodPost, "/v1/fleets/all-197/windows", mustJSON(WindowRequest{Workloads: wls}), http.StatusOK)
		if err := json.Unmarshal(body, &ack); err != nil {
			b.Fatal(err)
		}
		if ack.Triggered != (i == driftAt) {
			b.Fatalf("preparing the state directory: window %d acked %s", i, body)
		}
	}
	s.Kill()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := openDir(dir, quiet)
		if err != nil {
			b.Fatal(err)
		}
		if s.recovery.SnapshotFleets != 1 || s.recovery.Windows != windows || s.recovery.Advances != 1 {
			b.Fatalf("recovered %+v, want 1 fleet from the snapshot, %d windows and 1 advance", s.recovery, windows)
		}
		s.Kill()
	}
	b.ReportMetric(windows, "windows-replayed")
}
