package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"kairos/internal/journal"
)

// The request body's lifetime. readBody reads a window into a buffer from
// the server's free list, decodeWindow hands back the span of that buffer
// the journal record is framed from, and the handler, holding its fleet's
// turn, appends the record. The handler gives the buffer back only once it
// has answered: these tests hold every window handler with its fleet's
// turn — at the snapshot lock, or at its session's lock where the request
// under test takes the snapshot lock too — do what could tempt a handler
// to let go early, and check that the journal got the bytes that arrived.

// stacksNaming returns how many goroutines' stacks each name every one of
// frames, and the stacks.
func stacksNaming(frames ...string) (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	m := 0
stacks:
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, f := range frames {
			if !strings.Contains(g, f) {
				continue stacks
			}
		}
		m++
	}
	return m, buf
}

// stackWait waits until at least n goroutines' stacks each name every one
// of frames: how a test sees where a handler waits, with no hook in the
// server.
func stackWait(t *testing.T, n int, frames ...string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m, buf := stacksNaming(frames...)
		if m >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d goroutines in %q after 10s:\n%s", n, frames, buf)
		}
	}
}

// windowsHolding waits until n window handlers hold their fleet's turn and
// wait at the snapshot lock the test holds.
func windowsHolding(t *testing.T, n int) {
	t.Helper()
	stackWait(t, n, "(*Server).handleWindow", "(*RWMutex).RLock")
}

// windowsHoldingAtSession waits until n window handlers hold their fleet's
// turn and wait at their session's lock, which the test holds.
func windowsHoldingAtSession(t *testing.T, n int) {
	t.Helper()
	stackWait(t, n, "(*Server).processWindow", "(*Mutex).lockSlow")
}

// inFlight is a request the handler answers on its own goroutine.
type inFlight struct {
	rec  *httptest.ResponseRecorder
	done chan struct{}
}

// startRequest has h answer a request with ctx on a goroutine of its own.
func startRequest(ctx context.Context, h http.Handler, method, path string, body []byte) *inFlight {
	f := &inFlight{rec: httptest.NewRecorder(), done: make(chan struct{})}
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	go func() {
		defer close(f.done)
		h.ServeHTTP(f.rec, req)
	}()
	return f
}

// answer waits for the request's answer and checks its status.
func (f *inFlight) answer(t *testing.T, what string, want int) {
	t.Helper()
	select {
	case <-f.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer after 10s", what)
	}
	if f.rec.Code != want {
		t.Errorf("%s: %d %s, want %d", what, f.rec.Code, f.rec.Body, want)
	}
}

// noBodyGivenBack fails if a body reaches the free list within a few
// milliseconds: none may while the only window handlers hold their
// fleets' turns.
func noBodyGivenBack(t *testing.T, s *Server) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if n := len(s.bodies); n > 0 {
			t.Fatalf("%d bodies given back while their windows hold their turns", n)
		}
	}
}

// wantRecord is the window record the journal must hold for body.
func wantRecord(t *testing.T, id string, body []byte) []byte {
	t.Helper()
	_, span, err := decodeWindow(body)
	if err != nil {
		t.Fatal(err)
	}
	return windowRecord(t, id, span)
}

// TestRecycledBodyLifetime: a window's body is not read into by another
// request while its handler can still read the span — not when the
// collector goes away after the window took its fleet's turn, not when
// the fleet is deregistered while the window holds the turn, and not when
// the journal refuses the record. In each case the other collector's body
// goes to a fresh buffer, both records hold the bytes that arrived, and
// both bodies are given back once answered.
func TestRecycledBodyLifetime(t *testing.T) {
	bodyA := stampedWindow(4, 8, 1.001, 1000)
	bodyB := stampedWindow(4, 8, 1.002, 1000)
	if len(bodyB) > len(bodyA) {
		t.Fatal("the second window must fit in the first one's buffer")
	}
	setup := func(t *testing.T, fi *journal.FaultInjector) (*Server, string) {
		dir := t.TempDir()
		s, err := Open(Config{StateDir: dir, Journal: journal.Options{Sync: journal.SyncNone, Fault: fi}, SnapshotEvery: 1 << 20, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b"} {
			mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody(id, 4, 8), http.StatusCreated)
		}
		// An empty free list: a body given back early is the one the next
		// request is read into.
		for len(s.bodies) > 0 {
			<-s.bodies
		}
		return s, dir
	}
	// journaledBoth checks, once the server is killed, that the journal's
	// window records are the two windows as they arrived, in either order.
	journaledBoth := func(t *testing.T, s *Server, dir string) {
		if n := len(s.bodies); n != 2 {
			t.Errorf("%d bodies given back after both answers, want 2", n)
		}
		if err := s.Kill(); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		for _, r := range journalRecords(t, dir) {
			if bytes.HasPrefix(r.Payload, []byte(`{"window":`)) {
				got = append(got, r.Payload)
			}
		}
		a, b := wantRecord(t, "a", bodyA), wantRecord(t, "b", bodyB)
		if len(got) != 2 || !(bytes.Equal(got[0], a) && bytes.Equal(got[1], b) || bytes.Equal(got[0], b) && bytes.Equal(got[1], a)) {
			t.Errorf("the journal's %d window records are not the two windows that arrived", len(got))
		}
	}

	t.Run("collector gone", func(t *testing.T) {
		s, dir := setup(t, nil)
		h := s.Handler()
		s.pauseRW.Lock()
		ctx, disconnect := context.WithCancel(context.Background())
		a := startRequest(ctx, h, http.MethodPost, "/v1/fleets/a/windows", bodyA)
		windowsHolding(t, 1)
		disconnect()
		noBodyGivenBack(t, s)
		b := startRequest(context.Background(), h, http.MethodPost, "/v1/fleets/b/windows", bodyB)
		windowsHolding(t, 2)
		s.pauseRW.Unlock()
		a.answer(t, "window of the collector that went away", http.StatusOK)
		b.answer(t, "window of the other collector", http.StatusOK)
		journaledBoth(t, s, dir)
	})

	t.Run("deregistered mid-ingest", func(t *testing.T) {
		s, dir := setup(t, nil)
		h := s.Handler()
		// The windows wait at their sessions' locks, not at the snapshot
		// lock: the deregistration takes that one's read side too, and must
		// get it while fleet a's window holds the turn.
		s.mu.Lock()
		sessA, sessB := s.fleets["a"], s.fleets["b"]
		s.mu.Unlock()
		sessA.mu.Lock()
		sessB.mu.Lock()
		a := startRequest(context.Background(), h, http.MethodPost, "/v1/fleets/a/windows", bodyA)
		windowsHoldingAtSession(t, 1)
		// Fleet a is out of the registry and its context cancelled; the
		// deregistration waits for the window holding the turn.
		del := startRequest(context.Background(), h, http.MethodDelete, "/v1/fleets/a", nil)
		stackWait(t, 1, "[chan send]", "(*Server).handleDelete")
		noBodyGivenBack(t, s)
		b := startRequest(context.Background(), h, http.MethodPost, "/v1/fleets/b/windows", bodyB)
		windowsHoldingAtSession(t, 2)
		sessA.mu.Unlock()
		sessB.mu.Unlock()
		a.answer(t, "window holding the turn when its fleet went", http.StatusOK)
		del.answer(t, "deregistration", http.StatusNoContent)
		b.answer(t, "window of the other fleet", http.StatusOK)
		journaledBoth(t, s, dir)
	})

	t.Run("append refused", func(t *testing.T) {
		fi := &journal.FaultInjector{}
		s, dir := setup(t, fi)
		h := s.Handler()
		s.pauseRW.Lock()
		a := startRequest(context.Background(), h, http.MethodPost, "/v1/fleets/a/windows", bodyA)
		windowsHolding(t, 1)
		b := startRequest(context.Background(), h, http.MethodPost, "/v1/fleets/b/windows", bodyB)
		windowsHolding(t, 2)
		noBodyGivenBack(t, s)
		// The first record written is torn halfway; the log is poisoned for
		// the second.
		fi.CrashPartial(journal.PointAppendWrite, 1, 0.5)
		s.pauseRW.Unlock()
		a.answer(t, "window whose append was refused", http.StatusServiceUnavailable)
		b.answer(t, "window behind the refused append", http.StatusServiceUnavailable)
		if n := len(s.bodies); n != 2 {
			t.Errorf("%d bodies given back after both answers, want 2", n)
		}
		if err := s.Kill(); err != nil {
			t.Fatal(err)
		}
		// What reached the file after the two registrations is the head of
		// one of the two frames: its declared length and a prefix of its
		// record as it arrived.
		raw, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		const header = 16 // payload length, CRC, seq
		for range 2 {
			raw = raw[header+binary.LittleEndian.Uint32(raw):]
		}
		if len(raw) < header {
			t.Fatalf("torn tail of %d bytes, want a frame header and more", len(raw))
		}
		n := int(binary.LittleEndian.Uint32(raw))
		torn := raw[header:]
		ok := false
		for _, want := range [][]byte{wantRecord(t, "a", bodyA), wantRecord(t, "b", bodyB)} {
			ok = ok || n == len(want) && bytes.HasPrefix(want, torn)
		}
		if !ok {
			t.Errorf("the torn write is not a prefix of either window that arrived: %q", torn)
		}
	})
}

// TestRegistrationRequestSurvivesIngest: a registration's request and its
// fleet share the decoded sample arrays (toWorkloads adopts them), so the
// request every snapshot re-issues reads, after windows, a trigger and the
// advance it led to, byte for byte as it did at registration.
func TestRegistrationRequestSurvivesIngest(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody("f", 4, 8), http.StatusCreated)
	s.mu.Lock()
	registered := mustJSON(s.fleets["f"].req)
	s.mu.Unlock()
	for i, scale := range []float64{1.001, 1.3, 1.31} {
		var ack WindowResponse
		out := mustServe(t, s, http.MethodPost, "/v1/fleets/f/windows", stampedWindow(4, 8, scale, int64(1000*(i+1))), http.StatusOK)
		if err := json.Unmarshal(out, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Triggered != (i == 1) {
			t.Fatalf("window %d acked %s, want the trigger and advance at window 1", i, out)
		}
	}
	if err := s.Close(); err != nil { // writes the snapshot
		t.Fatal(err)
	}
	l, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Fleets []struct {
			Request json.RawMessage `json:"request"`
		} `json:"fleets"`
	}
	if err := json.Unmarshal(rec.Snapshot, &snap); err != nil || len(snap.Fleets) != 1 {
		t.Fatalf("snapshot: %v, %d fleets", err, len(snap.Fleets))
	}
	if !bytes.Equal(snap.Fleets[0].Request, registered) {
		t.Errorf("the snapshot's request\n%s\nis not the registration's\n%s", snap.Fleets[0].Request, registered)
	}
}

// BenchmarkIngestWindow197 acknowledges one quiet 197-server window per
// op through Handler().ServeHTTP: the body read, decode and conversion,
// the fleet's turn — with durable, the journal append at -fsync none; the
// detector; the ack ring — and the reply. start_unix is restamped in place
// each op, so every window is a new one, and warm-up windows before the
// timer fill the free list and the journal's frame buffer. allocs/op and
// B/op are pinned in BENCH_counts.json (make bench-counts): a body read
// into a fresh buffer, a record copied before the journal frames it, a
// series copied or a forecast built to be scored shows there as bytes.
func BenchmarkIngestWindow197(b *testing.B) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"memory", false}, {"durable", true}} {
		b.Run(tc.name, func(b *testing.B) {
			s := New(nil)
			if tc.durable {
				var err error
				if s, err = Open(Config{StateDir: b.TempDir(), Journal: journal.Options{Sync: journal.SyncNone}, SnapshotEvery: 1 << 30}); err != nil {
					b.Fatal(err)
				}
			}
			defer s.Kill()
			mustServe(b, s, http.MethodPost, "/v1/fleets", register197(b), http.StatusCreated)
			body := window197(b)
			stamp := []byte(`"start_unix":1700000300`)
			var at []int
			for i := 0; ; {
				j := bytes.Index(body[i:], stamp)
				if j < 0 {
					break
				}
				at = append(at, i+j+len(stamp)-10)
				i += j + len(stamp)
			}
			if len(at) != 197 {
				b.Fatalf("found %d start_unix stamps, want 197", len(at))
			}
			h := s.Handler()
			key := int64(1_700_000_300)
			var digits [10]byte
			post := func() {
				key += 300
				strconv.AppendInt(digits[:0], key, 10)
				for _, i := range at {
					copy(body[i:], digits[:])
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/fleets/all-197/windows", bytes.NewReader(body)))
				if w.Code != http.StatusOK || bytes.Contains(w.Body.Bytes(), []byte(`"triggered":true`)) {
					b.Fatalf("window %d: %d %s, want a quiet ack", key, w.Code, w.Body)
				}
			}
			for range 3 {
				post()
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.StopTimer()
		})
	}
}
