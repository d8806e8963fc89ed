package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"kairos/internal/journal"
)

// A durable server journals a window whose body is shaped as a collector
// writes one while it decodes it (journal.Log.AppendChecked): these tests
// hold that what reaches the journal is what the decode-first path wrote.

// checkedBody fails the test unless body takes the checked path: its span
// can be guessed from its shape.
func checkedBody(t *testing.T, body []byte) []byte {
	t.Helper()
	if guessSpan(body) == nil {
		t.Fatalf("body is not shaped as a collector writes one: %s", clip(body))
	}
	return body
}

// readWAL returns the journal file of state dir dir.
func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	wal, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

// fleetStatus is GET /v1/fleets/{id} on url.
func fleetStatus(t *testing.T, url, id string) FleetStatus {
	t.Helper()
	status, body := do(t, http.MethodGet, url+"/v1/fleets/"+id, nil)
	if status != http.StatusOK {
		t.Fatalf("status of %s: %d %s", id, status, body)
	}
	var st FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckedWindowCrashBeforeCommit: a crash between a window record's
// sync and its commit loses the window and nothing else. The collector got
// a 503; the restart reads the uncommitted frame as a torn tail and has
// consumed no window; the window, resent, is consumed as a new one.
func TestCheckedWindowCrashBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	fi := &journal.FaultInjector{}
	s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways, Fault: fi}, 256)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("cc", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	window := checkedBody(t, stampedWindow(4, 8, 1.001, 1000))
	fi.Crash(journal.PointAppendCommit, 1)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/cc/windows", window); status != http.StatusServiceUnavailable {
		t.Fatalf("window whose commit crashed: %d %s, want 503", status, body)
	}
	if fi.Hits(journal.PointAppendCommit) != 1 {
		t.Fatal("the window did not reach its commit")
	}
	fi.Kill()
	ts.Close()
	s.Kill()

	rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
	defer func() { rts.Close(); rs.Close() }()
	if !rs.recovery.TornTail || rs.recovery.Windows != 0 {
		t.Fatalf("recovery %+v, want a torn tail and no window replayed", rs.recovery)
	}
	if st := fleetStatus(t, rts.URL, "cc"); st.Windows != 0 {
		t.Fatalf("recovered fleet consumed %d windows, want 0", st.Windows)
	}
	var ack WindowResponse
	if err := json.Unmarshal(mustServe(t, rs, http.MethodPost, "/v1/fleets/cc/windows", window, http.StatusOK), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Duplicate || ack.Window != 0 {
		t.Fatalf("resent window acked %+v, want it consumed as window 0", ack)
	}
}

// TestCheckedWindowRefusalsLeaveJournal: a window refused before its
// record commits — a malformed number, a resend, workloads toWorkloads
// refuses — gets its answer, from an in-memory server as from a durable
// one, and leaves a durable server's journal byte for byte as it was. A
// body whose span is not the guessed one (it holds another key) and one
// with no guessed span (its first key is not "workloads") are accepted,
// and journaled around their span, as the decode-first path journals them.
// A restart recovers the state the live server had.
func TestCheckedWindowRefusalsLeaveJournal(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		_, ts := newTestServer(t)
		checkedWindowRefusals(t, ts.URL, nil)
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		s, ts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
		defer ts.Close()
		live := checkedWindowRefusals(t, ts.URL, func() []byte { return readWAL(t, dir) })
		ts.Close()
		if err := s.Kill(); err != nil {
			t.Fatal(err)
		}
		rs, rts := openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
		defer func() { rts.Close(); rs.Close() }()
		if rs.recovery.TornTail || rs.recovery.Windows != live.Windows {
			t.Fatalf("recovery %+v, want the %d windows and no torn tail", rs.recovery, live.Windows)
		}
		if got := fleetStatus(t, rts.URL, "rf"); got != live {
			t.Fatalf("recovered %+v, live %+v", got, live)
		}
	})
}

// checkedWindowRefusals registers fleet rf at url, sends it the refusal
// table and the two accepted bodies, and returns the fleet's status.
// wal reads a durable server's journal; nil on an in-memory server.
func checkedWindowRefusals(t *testing.T, url string, wal func() []byte) FleetStatus {
	t.Helper()
	if status, body := do(t, http.MethodPost, url+"/v1/fleets", registerBody("rf", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	first := checkedBody(t, stampedWindow(4, 8, 1.001, 1000))
	if status, body := do(t, http.MethodPost, url+"/v1/fleets/rf/windows", first); status != http.StatusOK {
		t.Fatalf("first window: %d %s", status, body)
	}

	malformed := bytes.Replace(stampedWindow(4, 8, 1.002, 2000), []byte(`"cpu":[`), []byte(`"cpu":[+`), 1)
	unnamed := testWorkloads(4, 8, 1.002)
	unnamed[2].Name = ""
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"malformed number", malformed, http.StatusBadRequest},
		{"resend", first, http.StatusOK},
		{"workloads toWorkloads refuses", mustJSON(WindowRequest{Workloads: unnamed}), http.StatusBadRequest},
	} {
		var before []byte
		if wal != nil {
			before = wal()
		}
		status, body := do(t, http.MethodPost, url+"/v1/fleets/rf/windows", checkedBody(t, tc.body))
		if status != tc.status {
			t.Fatalf("%s: %d %s, want %d", tc.name, status, body, tc.status)
		}
		if tc.status == http.StatusOK {
			var ack WindowResponse
			if err := json.Unmarshal(body, &ack); err != nil || !ack.Duplicate || ack.Window != 0 {
				t.Fatalf("%s: acked %s (%v), want a duplicate of window 0", tc.name, body, err)
			}
		}
		if wal == nil {
			continue
		}
		if after := wal(); !bytes.Equal(after, before) {
			t.Fatalf("%s: the journal is %d bytes, %d before, or its bytes changed", tc.name, len(after), len(before))
		}
	}

	// Another key after the workloads: the guess runs to the last '}', the
	// span ends at the array's.
	extra := stampedWindow(4, 8, 1.003, 3000)
	extra = append(extra[:len(extra)-1], `,"collector":"v2"}`...)
	guess := checkedBody(t, extra)
	_, span, err := decodeWindow(extra)
	if err != nil || len(span) == len(guess) {
		t.Fatalf("the body with another key decodes to a %d-byte span (%v), its guess %d", len(span), err, len(guess))
	}
	// Another key first: the body has no guessed span.
	unguessed := append([]byte(`{"collector":"v2",`), stampedWindow(4, 8, 1.004, 4000)[1:]...)
	if guessSpan(unguessed) != nil {
		t.Fatalf("a body whose first key is not workloads has a guessed span: %s", clip(unguessed))
	}
	for i, tc := range []struct {
		name string
		body []byte
	}{
		{"window with another key", extra},
		{"window with another key first", unguessed},
	} {
		var before []byte
		if wal != nil {
			before = wal()
		}
		status, body := do(t, http.MethodPost, url+"/v1/fleets/rf/windows", tc.body)
		var ack WindowResponse
		if status != http.StatusOK || json.Unmarshal(body, &ack) != nil || ack.Duplicate || ack.Window != i+1 {
			t.Fatalf("%s: %d %s, want window %d acked", tc.name, status, body, i+1)
		}
		if wal == nil {
			continue
		}
		after := wal()
		if !bytes.HasPrefix(after, before) {
			t.Fatalf("the journal before the %s was rewritten", tc.name)
		}
		const header = 16 // payload length, CRC, seq
		if frame := after[len(before):]; len(frame) < header || !bytes.Equal(frame[header:], wantRecord(t, "rf", tc.body)) {
			t.Fatalf("the record of the %s is not framed around its span: %s", tc.name, clip(frame))
		}
	}

	live := fleetStatus(t, url, "rf")
	if live.Windows != 3 {
		t.Fatalf("live fleet consumed %d windows, want 3", live.Windows)
	}
	return live
}

// TestWindowDecodesBeforeItsTurn: a window decodes while it waits for its
// fleet's turn. One that has decoded by the time it takes the turn is
// journaled around its decoded span with one plain append, and the journal
// holds byte for byte what the checked append writes for the same body. A
// resend and a malformed body that wait for the turn are answered as ever
// and leave the journal as it was, and no goroutine outlives the requests.
func TestWindowDecodesBeforeItsTurn(t *testing.T) {
	window := checkedBody(t, stampedWindow(4, 8, 1.001, 1000))
	opt := journal.Options{Sync: journal.SyncAlways}

	// The checked append's journal: the same registration and window, with
	// the turn free when the window arrives.
	checkedDir := t.TempDir()
	cs, err := Open(Config{StateDir: checkedDir, Journal: opt, SnapshotEvery: 256, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, cs, http.MethodPost, "/v1/fleets", registerBody("dw", 4, 8), http.StatusCreated)
	mustServe(t, cs, http.MethodPost, "/v1/fleets/dw/windows", window, http.StatusOK)
	if err := cs.Kill(); err != nil {
		t.Fatal(err)
	}
	checked := readWAL(t, checkedDir)

	dir := t.TempDir()
	s, err := Open(Config{StateDir: dir, Journal: opt, SnapshotEvery: 256, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("dw", 4, 8), http.StatusCreated)
	s.mu.Lock()
	sess := s.fleets["dw"]
	s.mu.Unlock()
	h := s.Handler()
	base := runtime.NumGoroutine()

	// post sends body while the test holds the turn, waits until the window
	// has decoded and still waits for the turn, then lets it go on.
	post := func(name string, body []byte, want int) WindowResponse {
		t.Helper()
		sess.turn <- struct{}{}
		parsed := parsedNumbers.Load()
		f := startRequest(context.Background(), h, http.MethodPost, "/v1/fleets/dw/windows", body)
		stackWait(t, 1, "(*Server).handleWindow", "[select]")
		// The window's decode goroutine ends while the turn is held.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			n, buf := stacksNaming("server.startDecode")
			if n == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the decode goroutine has not ended after 10s:\n%s", name, buf)
			}
		}
		if want == http.StatusOK && parsedNumbers.Load() == parsed {
			t.Fatalf("%s: no sample was parsed while the turn was held", name)
		}
		select {
		case <-f.done:
			t.Fatalf("%s: answered %d %s before it had the turn", name, f.rec.Code, f.rec.Body)
		default:
		}
		<-sess.turn
		f.answer(t, name, want)
		var ack WindowResponse
		if want == http.StatusOK {
			if err := json.Unmarshal(f.rec.Body.Bytes(), &ack); err != nil {
				t.Fatal(err)
			}
		}
		return ack
	}

	if ack := post("window", window, http.StatusOK); ack.Duplicate || ack.Window != 0 {
		t.Fatalf("window acked %+v, want window 0", ack)
	}
	if wal := readWAL(t, dir); !bytes.Equal(wal, checked) {
		t.Fatalf("the journal is %d bytes, %d after the checked append, or its bytes differ", len(wal), len(checked))
	}
	if ack := post("resend", window, http.StatusOK); !ack.Duplicate || ack.Window != 0 {
		t.Fatalf("resend acked %+v, want a duplicate of window 0", ack)
	}
	malformed := bytes.Replace(stampedWindow(4, 8, 1.002, 2000), []byte(`"cpu":[`), []byte(`"cpu":[+`), 1)
	post("malformed number", malformed, http.StatusBadRequest)
	if wal := readWAL(t, dir); !bytes.Equal(wal, checked) {
		t.Fatalf("after the resend and the malformed body the journal is %d bytes, %d before, or its bytes changed", len(wal), len(checked))
	}
	if n := sess.met.decodedWaiting.Load(); n != 3 {
		t.Errorf("%d windows counted as decoded while waiting, want 3", n)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d goroutines after the requests, %d before", n, base)
	}
}

// TestDecoderPanicAnswers500: a decoder panic, on a window's own decode
// goroutine or in a chunk of its split, costs that window a 500 and
// nothing more, on the in-memory and the durable server: the fleet's turn
// and the snapshot lock's read side are free, the journal is as it was,
// and the next window is acked. A registration whose split chunk panics
// is answered 500 too.
func TestDecoderPanicAnswers500(t *testing.T) {
	splitSmall(t)
	t.Cleanup(func() { decodeHook = nil })
	for _, durable := range []bool{false, true} {
		atProcs(4, func() {
			var s *Server
			var ts *httptest.Server
			var wal func() []byte
			if durable {
				dir := t.TempDir()
				s, ts = openDurable(t, dir, journal.Options{Sync: journal.SyncAlways}, 256)
				wal = func() []byte { return readWAL(t, dir) }
				defer s.Close()
			} else {
				s, ts = newTestServer(t)
				wal = func() []byte { return nil }
			}
			defer ts.Close()
			if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("dp", 4, 8)); status != http.StatusCreated {
				t.Fatalf("register: %d %s", status, body)
			}
			for i, chunk := range []bool{false, true} {
				label := fmt.Sprintf("durable %v, chunk %v", durable, chunk)
				before := wal()
				decodeHook = func(c bool) {
					if c == chunk {
						panic("decoder bug")
					}
				}
				status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/dp/windows", stampedWindow(4, 8, 1.001, int64(1000+i)))
				decodeHook = nil
				if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("decoder bug")) {
					t.Fatalf("%s: %d %s, want a 500 naming the panic", label, status, body)
				}
				s.mu.Lock()
				sess := s.fleets["dp"]
				s.mu.Unlock()
				select {
				case sess.turn <- struct{}{}:
					<-sess.turn
				default:
					t.Fatalf("%s: the fleet's turn is still held", label)
				}
				if !s.pauseRW.TryLock() {
					t.Fatalf("%s: the snapshot lock's read side is still held", label)
				}
				s.pauseRW.Unlock()
				if after := wal(); !bytes.Equal(after, before) {
					t.Fatalf("%s: the journal is %d bytes, %d before, or its bytes changed", label, len(after), len(before))
				}
				if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/dp/windows", stampedWindow(4, 8, 1.001, int64(2000+i))); status != http.StatusOK {
					t.Fatalf("%s: the next window: %d %s", label, status, body)
				}
			}
			decodeHook = func(c bool) {
				if c {
					panic("decoder bug")
				}
			}
			status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("dq", 4, 8))
			decodeHook = nil
			if status != http.StatusInternalServerError {
				t.Fatalf("durable %v: a registration whose chunk panics: %d %s, want 500", durable, status, body)
			}
		})
	}
}
