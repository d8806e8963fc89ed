package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"kairos/internal/journal"
)

// journalRecords reads back what a stopped control plane left in dir.
func journalRecords(t *testing.T, dir string) []journal.Record {
	t.Helper()
	l, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

// TestRequestBodyEdges pins what the read-all request path does with
// bodies that are not one JSON value of a sane size, for both POST
// endpoints: trailing data is a 400 (json.Decoder used to ignore it), an
// empty body is a 400, and an oversized body is a 413 whether the client
// declared its length (the buffer is not sized from the declaration) or
// streamed it chunked.
func TestRequestBodyEdges(t *testing.T) {
	_, ts := newTestServer(t)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("edge", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	window := string(mustJSON(WindowRequest{Workloads: testWorkloads(4, 8, 1.001)}))
	register := string(registerBody("edge2", 4, 8))
	huge := `{"workloads": "` + strings.Repeat("a", maxBodyBytes+1024) + `"}`

	for _, tc := range []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"window then garbage", "/v1/fleets/edge/windows", window + "x", http.StatusBadRequest},
		{"window then a second value", "/v1/fleets/edge/windows", window + " " + window, http.StatusBadRequest},
		{"window then whitespace", "/v1/fleets/edge/windows", window + " \r\n\t", http.StatusOK},
		{"window empty body", "/v1/fleets/edge/windows", "", http.StatusBadRequest},
		{"window whitespace only", "/v1/fleets/edge/windows", "  \n", http.StatusBadRequest},
		{"window oversized", "/v1/fleets/edge/windows", huge, http.StatusRequestEntityTooLarge},
		{"register then garbage", "/v1/fleets", register + "]", http.StatusBadRequest},
		{"register then a second value", "/v1/fleets", register + register, http.StatusBadRequest},
		{"register empty body", "/v1/fleets", "", http.StatusBadRequest},
		{"register oversized", "/v1/fleets", huge, http.StatusRequestEntityTooLarge},
		{"register then whitespace", "/v1/fleets", register + "\n", http.StatusCreated},
	} {
		for _, framing := range []string{"content-length", "chunked"} {
			t.Run(tc.name+"/"+framing, func(t *testing.T) {
				if framing == "chunked" && tc.status == http.StatusCreated {
					t.Skip("registered by the content-length pass")
				}
				var rd io.Reader = strings.NewReader(tc.body) // net/http declares its length
				if framing == "chunked" {
					rd = struct{ io.Reader }{rd} // an opaque reader is sent chunked
				}
				req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, rd)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.status, msg)
				}
			})
		}
	}

	// Only the two accepted windows (one per framing) were applied.
	var st FleetStatus
	_, body := do(t, http.MethodGet, ts.URL+"/v1/fleets/edge", nil)
	if err := json.Unmarshal(body, &st); err != nil || st.Windows != 2 {
		t.Errorf("fleet status %s (%v), want 2 windows", body, err)
	}
}

// TestReadBodyPresize: the buffer is sized from Content-Length, so a
// declared body is read without growing — and a declaration past the cap
// (or none) sizes nothing.
func TestReadBodyPresize(t *testing.T) {
	s := New(nil)
	defer s.Close()
	for _, tc := range []struct {
		declared int64
		maxCap   int
	}{
		{1 << 20, 1<<20 + bytes.MinRead},
		{-1, 4 * bytes.MinRead},
		{maxBodyBytes + 1, 4 * bytes.MinRead},
		{1 << 40, 4 * bytes.MinRead},
	} {
		payload := bytes.Repeat([]byte("x"), 1<<20)
		if tc.declared > 1<<20 || tc.declared < 0 {
			payload = payload[:16]
		}
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(payload)), ContentLength: tc.declared}
		got, err := s.readBody(r)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("declared %d: read %d bytes, %v", tc.declared, len(got), err)
		}
		if cap(got) > tc.maxCap {
			t.Errorf("declared %d: buffer of %d bytes, want at most %d", tc.declared, cap(got), tc.maxCap)
		}
	}
}

// TestReadBodyReuses: a body given back is the buffer the next body is
// read into when it has room for the declared length; one without room is
// left for the collector, and the free list holds GOMAXPROCS + 1 at most.
func TestReadBodyReuses(t *testing.T) {
	s := New(nil)
	defer s.Close()
	read := func(n int) []byte {
		t.Helper()
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(make([]byte, n))), ContentLength: int64(n)}
		b, err := s.readBody(r)
		if err != nil || len(b) != n {
			t.Fatalf("read %d of %d bytes: %v", len(b), n, err)
		}
		return b
	}
	first := read(1 << 16)
	s.putBody(first)
	if again := read(1 << 10); &again[0] != &first[0] {
		t.Error("a smaller body was not read into the buffer given back")
	} else {
		s.putBody(again)
	}
	if bigger := read(1 << 17); &bigger[0] == &first[0] {
		t.Error("a body larger than the free buffer was read into it")
	}
	for range 2 * cap(s.bodies) {
		s.putBody(make([]byte, 8))
	}
	if len(s.bodies) != runtime.GOMAXPROCS(0)+1 {
		t.Errorf("free list holds %d buffers, want GOMAXPROCS + 1 = %d", len(s.bodies), runtime.GOMAXPROCS(0)+1)
	}
}

// TestClientDisconnectMidBody: a collector that dies halfway through a
// window leaves no trace — nothing journaled, nothing applied, nothing
// in the ack ring.
func TestClientDisconnectMidBody(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurable(t, dir, journal.Options{}, 256)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody("cut", 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	window := stampedWindow(4, 8, 1.001, 4242)
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v1/fleets/cut/windows HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", u.Host, len(window))
	if _, err := conn.Write(window[:len(window)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Close returns once every handler has, this one on its failed read.
	ts.Close()
	s.mu.Lock()
	sess := s.fleets["cut"]
	s.mu.Unlock()
	sess.turn <- struct{}{}
	acked := len(sess.acks)
	<-sess.turn
	if st := s.status(sess); st.Windows != 0 || acked != 0 {
		t.Errorf("half a window was applied: %d windows, %d ack ring entries", st.Windows, acked)
	}
	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, dir)
	if len(recs) != 1 || !bytes.HasPrefix(recs[0].Payload, []byte(`{"register":`)) {
		t.Errorf("journal holds %d records, want the registration alone", len(recs))
	}
}

// sessionState is what recovery must reproduce for a fleet: the served
// placement, the window count, the event log and the ack ring.
type sessionState struct {
	Plan   []AssignmentWire
	Status FleetStatus
	Events []*EventWire
	Acks   []AckWire
}

func stateOf(t *testing.T, s *Server, id string) sessionState {
	t.Helper()
	s.mu.Lock()
	sess := s.fleets[id]
	s.mu.Unlock()
	if sess == nil {
		t.Fatalf("fleet %q is not registered", id)
	}
	st := sessionState{Status: s.status(sess), Plan: planWire(sess.fleet.Plan()).Assignments}
	st.Events = append(st.Events, *sess.events.Load()...)
	sess.turn <- struct{}{}
	defer func() { <-sess.turn }()
	st.Acks = append(st.Acks, sess.acks...)
	return st
}

// TestWorkersOptionIgnored: the "workers" and "rearm" options earlier
// releases took are accepted and change nothing. A registration carrying
// them is served the plan one without them is, and a journaled register
// record and a snapshot carrying them recover to the state the live server
// had.
func TestWorkersOptionIgnored(t *testing.T) {
	plain := registerBody("a", 4, 8)
	legacy := withRetired(plain)
	if !bytes.Contains(legacy, []byte(`"options":{"workers":2,"rearm":0.02}`)) {
		t.Fatalf("the legacy registration carries no workers and rearm options: %.200s", legacy)
	}
	ref := New(nil)
	defer ref.Close()
	mustServe(t, ref, http.MethodPost, "/v1/fleets", plain, http.StatusCreated)

	live := t.TempDir()
	s, err := openDir(live, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, s, http.MethodPost, "/v1/fleets", legacy, http.StatusCreated)
	want := stateOf(t, s, "a")
	if got := stateOf(t, ref, "a"); !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Errorf("with workers the plan is\n%+v\nwithout\n%+v", want.Plan, got.Plan)
	}
	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}

	// The register record as an earlier release journaled it.
	recs := journalRecords(t, live)
	if len(recs) != 1 {
		t.Fatalf("journal holds %d records, want the registration", len(recs))
	}
	dir := t.TempDir()
	appendRaw(t, dir, withRetired(recs[0].Payload))
	recovered := func(what string) {
		t.Helper()
		rs, err := openDir(dir, t.Logf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := stateOf(t, rs, "a"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s recovered\n%+v\nwant\n%+v", what, got, want)
		}
		if err := rs.Close(); err != nil { // writes the snapshot
			t.Fatal(err)
		}
	}
	recovered("a register record with workers")

	// The snapshot as an earlier release wrote it.
	l, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || !bytes.Contains(rec.Snapshot, []byte(`"options":{}`)) {
		t.Fatalf("the state directory holds %d records and a snapshot %.200s, want the snapshot alone", len(rec.Records), rec.Snapshot)
	}
	if err := l.Snapshot(withRetired(rec.Snapshot)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recovered("a snapshot with workers")
}

// TestWindowRecordCompatibility: the journal's window records are the
// received bytes under the RecordWire schema. A record as the previous
// release wrote it (json.Marshal of the decoded window) and the spliced
// one replay to the same session state — upgrade; and a spliced record
// is valid JSON that encoding/json reads as the window that was applied
// — downgrade, and bench/'s mirror. The fleet id needs JSON escaping, so
// the record head (windowHead) quotes it as json.Marshal does.
func TestWindowRecordCompatibility(t *testing.T) {
	const id = `flotte-"é"-<a&b>`
	escaped := url.PathEscape(id)
	windows := [][]byte{
		stampedWindow(4, 8, 1.001, 1000),
		stampedWindow(4, 8, 1.3, 2000),
		// Spelled as no Go encoder would: the journal keeps it as it came.
		[]byte(strings.Replace(string(stampedWindow(4, 8, 1.002, 3000)), `"workloads":[`, `"unknown":{"a":[1]}, "Workloads" : [ `, 1)),
	}

	live := t.TempDir()
	s, ts := openDurable(t, live, journal.Options{}, 256)
	if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets", registerBody(id, 4, 8)); status != http.StatusCreated {
		t.Fatalf("register: %d %s", status, body)
	}
	for i, w := range windows {
		if status, body := do(t, http.MethodPost, ts.URL+"/v1/fleets/"+escaped+"/windows", w); status != http.StatusOK {
			t.Fatalf("window %d: %d %s", i, status, body)
		}
	}
	want := stateOf(t, s, id)
	if want.Status.Windows != 3 || want.Status.Triggers != 1 || len(want.Acks) != 3 {
		t.Fatalf("live state %+v, want 3 windows, 1 trigger, 3 acks", want)
	}
	ts.Close()
	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}

	// Downgrade: every record is a RecordWire to encoding/json, and the
	// window records hold what was posted. Re-marshalling them gives the
	// journal the previous release would have written.
	old := t.TempDir()
	ol, _, err := journal.Open(old, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range journalRecords(t, live) {
		var rw RecordWire
		if err := json.Unmarshal(r.Payload, &rw); err != nil {
			t.Fatalf("record %d is not a RecordWire: %v", r.Seq, err)
		}
		if rw.Window != nil {
			var posted WindowRequest
			if err := json.Unmarshal(windows[n], &posted); err != nil {
				t.Fatal(err)
			}
			if rw.Window.Fleet != id || !sameBits(rw.Window.Workloads, posted.Workloads) {
				t.Errorf("window record %d does not read back as the window posted", n)
			}
			if n == 2 && !bytes.Contains(r.Payload, []byte(`"workloads":[ {`)) {
				t.Errorf("window record 2 was re-encoded, not spliced: %.80s", r.Payload)
			}
			n++
		}
		if _, err := ol.Append(mustJSON(&rw)); err != nil {
			t.Fatal(err)
		}
	}
	if n != len(windows) {
		t.Fatalf("journal holds %d window records, want %d", n, len(windows))
	}
	if err := ol.Close(); err != nil {
		t.Fatal(err)
	}

	// Upgrade: both journals replay to the state the live server had.
	for _, j := range []struct{ name, dir string }{{"spliced", live}, {"marshalled", old}} {
		rs, err := Open(Config{StateDir: j.dir, Logf: t.Logf})
		if err != nil {
			t.Fatalf("%s journal: %v", j.name, err)
		}
		if got := stateOf(t, rs, id); !reflect.DeepEqual(got, want) {
			t.Errorf("%s journal replayed to\n%+v\nwant\n%+v", j.name, got, want)
		}
		if rs.recovery.Windows != 3 || rs.recovery.Advances != 1 {
			t.Errorf("recovery stats %+v, want 3 windows and 1 advance", rs.recovery)
		}
		if err := rs.Kill(); err != nil {
			t.Fatal(err)
		}
	}
}
