package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kairos"
	"kairos/internal/core"
	"kairos/internal/fleet"
)

// window197 is a real observation window of the 197-server ALL fleet as
// a collector posts it (stamped, so it carries an idempotency key).
func window197(tb testing.TB) []byte {
	tb.Helper()
	all := fleet.All()
	wire := wireWorkloads(all.Workloads(0.7), 1.003)
	if len(wire) != 197 {
		tb.Fatalf("ALL fleet has %d servers, want 197", len(wire))
	}
	for i := range wire {
		wire[i].StartUnix = 1_700_000_300
	}
	return mustJSON(WindowRequest{Workloads: wire})
}

// workloadsKeys counts the top-level keys of body that encoding/json
// stores in WindowRequest.Workloads. body is valid JSON.
func workloadsKeys(body []byte) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return n
		}
		if k, ok := key.(string); ok && strings.EqualFold(k, "workloads") {
			n++
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return n
		}
	}
	return n
}

// clip shortens a body for a failure message.
func clip(b []byte) string {
	if len(b) > 400 {
		return fmt.Sprintf("%q… (%d bytes)", b[:400], len(b))
	}
	return fmt.Sprintf("%q", b)
}

// checkDecodeWindow holds decodeWindow to its contract on one body:
// it accepts what json.Unmarshal into WindowRequest accepts (nested one
// level deeper, as the journal record will nest it); the span it
// returns decodes on its own (by either decoder) to the workloads it
// returned; unless the workloads key repeats, those are encoding/json's
// workloads for the whole body; and the journal payload spliced from the
// span reads back, by encoding/json and by replay's decoder, as the same
// window.
func checkDecodeWindow(t *testing.T, body []byte) {
	t.Helper()
	var std WindowRequest
	stdErr := json.Unmarshal(body, &std)
	if stdErr == nil && !json.Valid(append(append([]byte{'['}, body...), ']')) {
		stdErr = errors.New("exceeds max depth once nested in a journal record")
	}
	got, span, err := decodeWindow(body)
	if (err == nil) != (stdErr == nil) {
		t.Fatalf("decodeWindow error %v, encoding/json error %v\nbody: %s", err, stdErr, clip(body))
	}
	if err != nil {
		if got != nil || span != nil {
			t.Fatalf("a rejected body returned workloads or a span\nbody: %s", clip(body))
		}
		return
	}
	if span == nil {
		if got != nil {
			t.Fatalf("workloads without a span\nbody: %s", clip(body))
		}
		if std.Workloads != nil {
			t.Fatalf("no workloads, encoding/json has %+v\nbody: %s", std.Workloads, clip(body))
		}
		return
	}
	if !reflect.DeepEqual(got, std.Workloads) && workloadsKeys(body) < 2 {
		t.Fatalf("decodeWindow = %+v\nencoding/json = %+v\nbody: %s", got, std.Workloads, clip(body))
	}

	wrapped := append(append([]byte(`{"workloads":`), span...), '}')
	var alone WindowRequest
	if err := json.Unmarshal(wrapped, &alone); err != nil {
		t.Fatalf("span is not a valid workloads value: %v\nspan: %s", err, clip(span))
	}
	if !reflect.DeepEqual(got, alone.Workloads) {
		t.Fatalf("decodeWindow = %+v\nits span alone = %+v\nbody: %s", got, alone.Workloads, clip(body))
	}
	if again, _, err := decodeWindow(wrapped); err != nil || !reflect.DeepEqual(got, again) {
		t.Fatalf("re-decoding the span: %v, %+v, want %+v", err, again, got)
	}

	const id = "fleet \"a\\b\" <é>"
	payload, err := windowPayload(&RecordWire{Window: &WindowRecord{Fleet: id}}, span)
	if err != nil {
		t.Fatal(err)
	}
	var rw RecordWire
	if err := json.Unmarshal(payload, &rw); err != nil {
		t.Fatalf("spliced payload is not a RecordWire: %v\npayload: %s", err, clip(payload))
	}
	want := &WindowRecord{Fleet: id, Workloads: got}
	if !reflect.DeepEqual(rw, RecordWire{Window: want}) {
		t.Fatalf("spliced payload reads back as %+v, want window %+v", rw, want)
	}
	if rec, err := decodeRecord(payload); err != nil || !reflect.DeepEqual(rec, &RecordWire{Window: want}) {
		t.Fatalf("decodeRecord(spliced) = %+v, %v, want window %+v", rec, err, want)
	}
}

// decodeCases are the encoding/json corners the decoder reproduces,
// accepted and rejected alike; checkDecodeWindow decides which is which
// by asking encoding/json.
var decodeCases = []string{
	// shapes
	``, ` `, `null`, ` null `, `nul`, `nullx`, `{}`, ` { } `, `[]`, `5`, `"x"`, `true`, `{`, `}`,
	`{"workloads":null}`, `{"workloads":[]}`, `{"workloads":[ ]}`, `{"workloads":{}}`, `{"workloads":5}`,
	`{"workloads":"x"}`, `{"workloads":true}`, `{"workloads":[null]}`, `{"workloads":[{}]}`,
	`{"workloads":[{},null,{}]}`, `{"workloads":[5]}`, `{"workloads":[[]]}`, `{"workloads":["x"]}`,
	`{"workloads":[{}],}`, `{"workloads":[{},]}`, `{"workloads":[,{}]}`, `{,}`, `{"workloads"}`, `{"workloads":}`,
	`{"workloads" [{}]}`, `{workloads:[]}`, `{'workloads':[]}`,
	// whitespace everywhere
	" {\t\"workloads\"\r:\n[ { \"name\" : \"a\" , \"cpu\" : [ 1 , 2 ] , \"ram_bytes\" : [ 3 ] } , null ] } \n",
	// trailing data: an error, as for json.Unmarshal
	`{"workloads":[]}x`, `{"workloads":[]}{}`, `{"workloads":[]} null`, `null null`, `{}]`,
	// keys: case, folding, escapes, duplicates
	`{"WORKLOADS":[{"NAME":"a","Cpu":[1],"RAM_Bytes":[2],"Start_Unix":7}]}`,
	"{\"wor\u212aloads\":[{\"\u017ftart_unix\":7,\"replica\u017f\":2}]}",
	`{"w\u006frkloads":[{"n\u0061me":"a","\u0063pu":[1]}]}`,
	`{"wor\u212Aloads":[{"name":"kelvin"}]}`,
	`{"workloads\u0000":[{}]}`, `{"work\loads":[]}`, `{"workloads` + "\x01" + `":[]}`, `{"":[{"":1}]}`,
	"{\"workloads\xff\":[5],\"workloads\":[{\"name\xff\":5,\"name\":\"a\"}]}",
	`{"workloads":[{"name":"a"}],"workloads":[{"name":"b","cpu":[1]}]}`,
	`{"workloads":[{"name":"a","cpu":[1,2]}],"workloads":[{"cpu":[null]}]}`,
	`{"workloads":[{"name":"a"}],"Workloads":null}`,
	`{"workloads":[{"name":"a"}],"workloads":[]}`,
	`{"workloads":null,"workloads":[{"name":"a"}]}`,
	`{"workloads":[{"name":"a"}],"workloads":5}`,
	`{"workloads":[{"name":"a","name":"b","NAME":null}]}`,
	`{"workloads":[{"cpu":[1,2,3],"cpu":[4]}]}`,
	`{"workloads":[{"cpu":[1,2,3],"cpu":[4],"cpu":[null,null]}]}`,
	`{"workloads":[{"cpu":[1,2,3],"cpu":[null,5]}]}`,
	`{"workloads":[{"cpu":[1,2,3],"cpu":[],"cpu":[null,null]}]}`,
	`{"workloads":[{"cpu":[1,2,3],"cpu":null,"cpu":[null,null]}]}`,
	`{"workloads":[{"cpu":[1],"cpu":[null,null,null,null,null,null,null,null,null]}]}`,
	`{"workloads":[{"cpu":[1,2]},{"cpu":[null,null,null]}]}`,
	`{"workloads":[{"pin_to":1,"pin_to":null}]}`, `{"workloads":[{"pin_to":null,"pin_to":2}]}`,
	`{"workloads":[{"pin_to":1,"pin_to":2}]}`, `{"workloads":[{"replicas":3,"replicas":null}]}`,
	`{"workloads":[{"start_unix":5,"start_unix":null,"step_seconds":2,"step_seconds":null}]}`,
	// null for every field
	`{"workloads":[{"name":null,"start_unix":null,"step_seconds":null,"cpu":null,"ram_bytes":null,"ws_bytes":null,"update_rate":null,"disk_write_bps":null,"replicas":null,"pin_to":null}]}`,
	`{"workloads":[{"cpu":[null],"ram_bytes":[null,1,null]}]}`,
	// strings
	`{"workloads":[{"name":""}]}`, `{"workloads":[{"name":"a\"b\\c\/d\b\f\n\r\t"}]}`,
	`{"workloads":[{"name":"\u00e9\ud83d\ude00\ud83d"}]}`, `{"workloads":[{"name":"é😀"}]}`,
	"{\"workloads\":[{\"name\":\"bad\xff\xfeutf8\xc3\"}]}", "{\"workloads\":[{\"name\":\"del\x7f\"}]}",
	"{\"workloads\":[{\"name\":\"raw\nnewline\"}]}", "{\"workloads\":[{\"name\":\"tab\t\"}]}",
	`{"workloads":[{"name":"\q"}]}`, `{"workloads":[{"name":"\u12"}]}`, `{"workloads":[{"name":"open}]}`,
	`{"workloads":[{"name":"a\"}]}`, `{"workloads":[{"name":"a\\"}]}`, `{"workloads":[{"name":5}]}`,
	`{"workloads":[{"name":["a"]}]}`, `{"workloads":[{"name":{}}]}`, `{"workloads":[{"name":true}]}`,
	// numbers
	`{"workloads":[{"cpu":[0,-0,1,-1,0.5,-0.5,1e3,1E3,1e+3,1e-3,1.5e10,123456789012345678901234567890,5e-324,1e-999,1.7976931348623157e308]}]}`,
	`{"workloads":[{"cpu":[1e999]}]}`, `{"workloads":[{"cpu":[-1e999]}]}`, `{"workloads":[{"step_seconds":1e999}]}`,
	`{"workloads":[{"cpu":[01]}]}`, `{"workloads":[{"cpu":[+1]}]}`, `{"workloads":[{"cpu":[.5]}]}`,
	`{"workloads":[{"cpu":[5.]}]}`, `{"workloads":[{"cpu":[1e]}]}`, `{"workloads":[{"cpu":[1e+]}]}`,
	`{"workloads":[{"cpu":[-]}]}`, `{"workloads":[{"cpu":[--1]}]}`, `{"workloads":[{"cpu":[0x10]}]}`,
	`{"workloads":[{"cpu":[1_000]}]}`, `{"workloads":[{"cpu":[Inf]}]}`, `{"workloads":[{"cpu":[NaN]}]}`,
	`{"workloads":[{"cpu":[1 2]}]}`, `{"workloads":[{"cpu":[1,]}]}`, `{"workloads":[{"cpu":[,1]}]}`,
	`{"workloads":[{"cpu":[1}]}`, `{"workloads":[{"cpu":[1]]}]}`, `{"workloads":[{"cpu":["1"]}]}`,
	`{"workloads":[{"cpu":[true]}]}`, `{"workloads":[{"cpu":[[1]]}]}`, `{"workloads":[{"cpu":[{}]}]}`,
	`{"workloads":[{"cpu":1}]}`, `{"workloads":[{"cpu":"x"}]}`, `{"workloads":[{"cpu":{}}]}`,
	`{"workloads":[{"start_unix":1700000300}]}`, `{"workloads":[{"start_unix":-5}]}`, `{"workloads":[{"start_unix":-0}]}`,
	`{"workloads":[{"start_unix":1.5}]}`, `{"workloads":[{"start_unix":1.0}]}`, `{"workloads":[{"start_unix":1e3}]}`,
	`{"workloads":[{"start_unix":9223372036854775807}]}`, `{"workloads":[{"start_unix":9223372036854775808}]}`,
	`{"workloads":[{"start_unix":-9223372036854775808}]}`, `{"workloads":[{"start_unix":"5"}]}`,
	`{"workloads":[{"replicas":2,"pin_to":0}]}`, `{"workloads":[{"replicas":2.5}]}`, `{"workloads":[{"pin_to":1e2}]}`,
	`{"workloads":[{"replicas":99999999999999999999}]}`, `{"workloads":[{"pin_to":"1"}]}`, `{"workloads":[{"pin_to":[1]}]}`,
	`{"workloads":[{"step_seconds":300}]}`, `{"workloads":[{"step_seconds":"300"}]}`, `{"workloads":[{"step_seconds":[300]}]}`,
	// unknown fields at every level, valid and not
	`{"extra":1,"workloads":[{"extra":{"a":[1,{"b":"]}"}],"c":null},"name":"a"}],"more":[[],{}]}`,
	`{"extra":"str","workloads":[{"x":true,"y":false,"z":null,"w":-1.5e3,"v":"\u00e9"}]}`,
	`{"extra":tru,"workloads":[]}`, `{"extra":[1,],"workloads":[]}`, `{"extra":{"a"},"workloads":[]}`,
	`{"extra":{]}`, `{"extra":[}]`, `{"extra":[}`, `{"extra":"open`, `{"extra":01}`, `{"extra":1 2}`,
	`{"extra":"\q","workloads":[]}`, "{\"extra\":\"raw\x01\"}", `{"extra":}`, `{"extra":,"workloads":[]}`,
	`{"workloads":[{"extra":nul}]}`, `{"workloads":[{"extra":[1,2}]}`, `{"workloads":[{"extra":{"a":1]}]}`,
	`{"workloads":[{"extra":1x}]}`, `{"workloads":[{"extra":"a" "b"}]}`, `{"workloads":[{"extra":{} {}}]}`,
	`{"a":{"workloads":[{"name":"nested, not ours"}]}}`,
}

func TestDecodeWindowMatchesEncodingJSON(t *testing.T) {
	for _, body := range decodeCases {
		checkDecodeWindow(t, []byte(body))
	}
	checkDecodeWindow(t, window197(t))
}

// TestDecodeWindowTruncated cuts a body that exercises every token kind
// at every byte: each prefix is rejected, as by encoding/json, without a
// panic.
func TestDecodeWindowTruncated(t *testing.T) {
	body := []byte(` {"extra":{"a":[1,"]"]},"workloads":[{"name":"a\u00e9","start_unix":17,"step_seconds":3e2,` +
		`"cpu":[0.5,-1e-3,null],"ram_bytes":[],"replicas":2,"pin_to":null,"x":true},null]} `)
	checkDecodeWindow(t, body)
	if _, _, err := decodeWindow(body); err != nil {
		t.Fatalf("the whole body: %v", err)
	}
	for n := range body {
		checkDecodeWindow(t, body[:n])
	}
}

// TestDecodeWindowNestingLimit: encoding/json rejects documents nested
// deeper than 10000 levels; an unknown field's value counts from the
// depth it will sit at in the journal record, one deeper than in the
// request, so whatever is accepted is journaled as a record
// encoding/json can read (checkDecodeWindow reads it).
func TestDecodeWindowNestingLimit(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct {
		name string
		body string
		ok   bool
	}{
		{"request level at the limit", `{"x":` + nest(maxNesting-2) + `}`, true},
		{"request level past it", `{"x":` + nest(maxNesting-1) + `}`, false},
		{"workload level at the limit", `{"workloads":[{"x":` + nest(maxNesting-4) + `}]}`, true},
		{"workload level past it", `{"workloads":[{"x":` + nest(maxNesting-3) + `}]}`, false},
	} {
		checkDecodeWindow(t, []byte(tc.body))
		if _, _, err := decodeWindow([]byte(tc.body)); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestDecodeWindowSpan pins what the span is: the bytes of the last
// workloads value, sub-sliced from the body (no copy), cap-clipped.
func TestDecodeWindowSpan(t *testing.T) {
	for _, tc := range []struct{ body, span string }{
		{`{"workloads":[{"name":"a"}]}`, `[{"name":"a"}]`},
		{`{ "workloads" : [ ] , "x":1}`, `[ ]`},
		{`{"workloads":null}`, `null`},
		{`{"workloads":[{"name":"a"}],"WORKLOADS":[{"name":"b"}]}`, `[{"name":"b"}]`},
	} {
		body := []byte(tc.body)
		_, span, err := decodeWindow(body)
		if err != nil || string(span) != tc.span {
			t.Errorf("%s: span %q, %v, want %q", tc.body, span, err, tc.span)
			continue
		}
		if cap(span) != len(span) || &span[0] != &body[strings.LastIndex(tc.body, tc.span)] {
			t.Errorf("%s: span is not a cap-clipped sub-slice of the body", tc.body)
		}
	}
	if _, span, err := decodeWindow([]byte(`{"x":[]}`)); err != nil || span != nil {
		t.Errorf("no workloads key: span %q, %v, want nil", span, err)
	}
}

// TestDecodeWindowRepeatedKeyReplaces pins the one place the decoder
// departs from encoding/json's result: a repeated workloads key starts
// over, so what is applied is what the journaled span says.
func TestDecodeWindowRepeatedKeyReplaces(t *testing.T) {
	body := []byte(`{"workloads":[{"name":"a","cpu":[1,2],"ram_bytes":[3]}],"workloads":[{"cpu":[null]}]}`)
	got, span, err := decodeWindow(body)
	if err != nil {
		t.Fatal(err)
	}
	want := []WorkloadWire{{CPU: []float64{0}}}
	if !reflect.DeepEqual(got, want) || string(span) != `[{"cpu":[null]}]` {
		t.Errorf("decodeWindow = %+v, span %q, want %+v", got, span, want)
	}
	var std WindowRequest
	if err := json.Unmarshal(body, &std); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(std.Workloads, want) {
		t.Error("encoding/json no longer merges a repeated key: the documented difference is gone")
	}
}

// TestDecodeWindowRecord pins the two spellings of a window record: the
// one windowPayload splices is, byte for byte, the one json.Marshal
// writes for the decoded window, whatever the fleet id needs escaped, and
// replay's decoder reads it back.
func TestDecodeWindowRecord(t *testing.T) {
	wire := testWorkloads(3, 4, 1.0)
	for _, id := range []string{"f", `a"b`, "flotte-é", "<&>", "a\\b"} {
		want := &RecordWire{Window: &WindowRecord{Fleet: id, Workloads: wire}}
		marshalled := mustJSON(want)
		if rec, err := decodeRecord(marshalled); err != nil || !reflect.DeepEqual(rec, want) {
			t.Errorf("fleet %q: json.Marshal-built record decoded to %+v, %v", id, rec, err)
		}
		_, span, err := decodeWindow(mustJSON(WindowRequest{Workloads: wire}))
		if err != nil {
			t.Fatal(err)
		}
		spliced, err := windowPayload(&RecordWire{Window: &WindowRecord{Fleet: id}}, span)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spliced, marshalled) {
			t.Errorf("fleet %q: spliced payload\n%s\nis not json.Marshal's\n%s", id, spliced, marshalled)
		}
	}
	if _, err := windowPayload(&RecordWire{Rearm: &RearmRecord{Fleet: "f"}}, []byte(`[]`)); err == nil {
		t.Error("windowPayload accepted a head that is not a window record")
	}
	if _, err := windowPayload(&RecordWire{Window: &WindowRecord{Fleet: "f", Workloads: wire}}, []byte(`[]`)); err == nil {
		t.Error("windowPayload accepted a head that already has workloads")
	}
}

// FuzzDecodeWindow is the differential fuzz between the window decoder
// and encoding/json (see checkDecodeWindow for what must agree), through
// the speculative split whenever GOMAXPROCS is 2 or more.
func FuzzDecodeWindow(f *testing.F) {
	splitSmall(f)
	for _, body := range decodeCases {
		f.Add([]byte(body))
	}
	f.Add(window197(f))
	f.Add(mustJSON(WindowRequest{Workloads: testWorkloads(3, 4, 1.0)}))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeWindow(t, body)
	})
}

// reportSlowNumbers reports, as slow-numbers, how many numbers per
// operation the decoder handed to strconv since the counter read before:
// 0 on the 197-server documents, and gated there (make bench-counts), so
// an encoder or a decoder change that takes the samples off float's fast
// paths fails on a count.
func reportSlowNumbers(b *testing.B, before int64) {
	b.ReportMetric(float64(slowNumbers.Load()-before)/float64(b.N), "slow-numbers")
}

func BenchmarkDecodeWindow197(b *testing.B) {
	body := window197(b)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		defer reportSlowNumbers(b, slowNumbers.Load())
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeWindow(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req WindowRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWindowRecord197(b *testing.B) {
	body := window197(b)
	wire, span, err := decodeWindow(body)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("splice", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := windowPayload(&RecordWire{Window: &WindowRecord{Fleet: "all-197"}}, span); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&RecordWire{Window: &WindowRecord{Fleet: "all-197", Workloads: wire}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The documents behind the registration, record and snapshot checks: the
// 197-server ALL fleet as the daemon reads it at each position.

// all197 is the ALL fleet's workloads on the wire, scaled by f.
func all197(f float64) []WorkloadWire {
	all := fleet.All()
	return wireWorkloads(all.Workloads(0.7), f)
}

// register197 is the registration body of the ALL fleet, with the
// "workers" option earlier releases took and this one ignores.
func register197(tb testing.TB) []byte {
	tb.Helper()
	cooldown := 2
	return withWorkers(mustJSON(RegisterRequest{
		ID:           "all-197",
		Workloads:    all197(1.0),
		AutoMachines: &AutoMachines{Count: 197},
		Options:      OptionsWire{Cooldown: &cooldown},
	}))
}

// withWorkers puts "workers":2 first in doc's first options object, as a
// client of an earlier release sent it.
func withWorkers(doc []byte) []byte {
	if b := bytes.Replace(doc, []byte(`"options":{}`), []byte(`"options":{"workers":2}`), 1); !bytes.Equal(b, doc) {
		return b
	}
	return bytes.Replace(doc, []byte(`"options":{`), []byte(`"options":{"workers":2,`), 1)
}

// incumbent197 is a plan of the ALL fleet in durable form.
func incumbent197(req *RegisterRequest) *kairos.Incumbent {
	inc := &kairos.Incumbent{K: 16}
	for i, w := range req.Workloads {
		inc.Units = append(inc.Units, core.IncumbentUnit{Workload: w.Name, Index: i, Machine: i % 16, MachineName: fmt.Sprintf("target-%02d", i%16)})
	}
	return inc
}

// snapshot197 is a snapshot of the ALL fleet after a trigger: the
// request, a baseline and two history windows, so the workload array four
// times over, around everything else a FleetSnapshot carries.
func snapshot197(tb testing.TB) []byte {
	tb.Helper()
	var req RegisterRequest
	if err := json.Unmarshal(register197(tb), &req); err != nil {
		tb.Fatal(err)
	}
	return mustJSON(SnapshotWire{Fleets: []FleetSnapshot{{
		Request:   &req,
		Incumbent: incumbent197(&req),
		Baseline:  all197(1.12),
		History:   [][]WorkloadWire{all197(1.12), all197(1.003)},
		Detector:  DetectorWire{Windows: 8, Armed: true, Cooldown: 1},
		Events:    []*EventWire{{Window: 6, Trigger: "cpu drift", MaxDrift: 0.12, DriftedWorkloads: 197, K: 16, Migrated: 3}},
		Acks:      []AckWire{{StartUnix: 1_700_000_300, Window: 7}, {StartUnix: 1_700_000_600, Window: 8, Triggered: true}},
		Failures:  1,
	}}})
}

// recordKinds is one journal record of every kind, as json.Marshal
// writes them.
func recordKinds() []*RecordWire {
	req := &RegisterRequest{
		ID:          `fleet "a\b" <é>`,
		Workloads:   testWorkloads(3, 4, 1.0),
		Machines:    []MachineWire{{Name: "m0", CPUCapacity: 1, RAMBytes: 96e9}},
		DiskProfile: json.RawMessage(`{"points":[[1,2],[3,4]]}`),
	}
	inc := &kairos.Incumbent{K: 1, Units: []core.IncumbentUnit{{Workload: "db-00", Machine: 0, MachineName: "m0"}}}
	return []*RecordWire{
		{Register: &RegisterRecord{Request: req, Incumbent: inc}},
		{Window: &WindowRecord{Fleet: req.ID, Workloads: testWorkloads(3, 4, 1.1)}},
		{Advance: &AdvanceRecord{Fleet: req.ID, Incumbent: inc, Event: &EventWire{Window: 3, Trigger: "cpu", K: 1}}},
		{Rearm: &RearmRecord{Fleet: req.ID}},
		{Deregister: &DeregisterRecord{Fleet: req.ID}},
	}
}

// replacingKeys are the keys object hands to this file's decoders: the
// ones a repeat of which replaces the earlier value.
var replacingKeys = [...]string{"workloads", "baseline", "history", "fleets", "request", "register", "window"}

// repeatsKey reports whether doc, valid JSON, has an object — at the top
// or under replacingKeys, where the decoders look — holding one of those
// keys twice: the documents on which a decoder's result may differ from
// encoding/json's.
func repeatsKey(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	tok, err := dec.Token()
	if err != nil {
		return false
	}
	var seen [len(replacingKeys)]bool
	for dec.More() {
		field := 0
		if tok == json.Delim('{') {
			key, err := dec.Token()
			if err != nil {
				return false
			}
			if field = matchFolded(key.(string), replacingKeys[:]); field >= 0 {
				if seen[field] {
					return true
				}
				seen[field] = true
			}
		}
		var val json.RawMessage
		if dec.Decode(&val) != nil {
			return false
		}
		if field >= 0 && len(val) > 0 && (val[0] == '{' || val[0] == '[') && repeatsKey(val) {
			return true
		}
	}
	return false
}

// checkDecode holds one of the decoders to json.Unmarshal into the same
// struct on one document: the same accept or reject, and — unless a key
// of replacingKeys repeats — the same value, nil and empty slices told
// apart.
func checkDecode[T any](t *testing.T, name string, decode func([]byte) (*T, error), doc []byte) {
	t.Helper()
	want := new(T)
	stdErr := json.Unmarshal(doc, want)
	got, err := decode(doc)
	if (err == nil) != (stdErr == nil) {
		t.Fatalf("%s error %v, encoding/json error %v\ndoc: %s", name, err, stdErr, clip(doc))
	}
	if err != nil {
		if got != nil {
			t.Fatalf("%s returned a value with its error\ndoc: %s", name, clip(doc))
		}
		return
	}
	if !reflect.DeepEqual(got, want) && !repeatsKey(doc) {
		t.Fatalf("%s = %s\nencoding/json = %s\ndoc: %s", name, clip(mustJSON(got)), clip(mustJSON(want)), clip(doc))
	}
}

func checkDecodeRegister(t *testing.T, doc []byte) {
	t.Helper()
	checkDecode(t, "decodeRegister", decodeRegister, doc)
}

func checkDecodeRecord(t *testing.T, doc []byte) {
	t.Helper()
	checkDecode(t, "decodeRecord", decodeRecord, doc)
}

func checkDecodeSnapshot(t *testing.T, doc []byte) {
	t.Helper()
	checkDecode(t, "decodeSnapshot", decodeSnapshot, doc)
}

// wrapCases puts each window body of decodeCases — an object holding
// "workloads", or some corner of one — where the templates say %s: the
// positions where a decoder reads such an object, so every corner the
// window decoder reproduces is checked there too.
func wrapCases(templates ...string) []string {
	var out []string
	for _, body := range decodeCases {
		for _, tpl := range templates {
			out = append(out, strings.ReplaceAll(tpl, "%s", body))
		}
	}
	return out
}

// registerCases are registration bodies: the walker's corners around the
// workloads key. The window corners under it come from wrapCases.
var registerCases = []string{
	``, `null`, ` null `, `{}`, `[]`, `5`, `"x"`, `{"id":"a"}`, `{"id":"a"} x`, `{"id":"a"}{}`,
	`{"id":"a","workloads":null,"auto_machines":{"count":2}}`,
	`{"id":"a","workloads":[],"machines":[{"name":"m","cpu_capacity":1,"ram_bytes":2}],"machines":[{"name":"n"}]}`,
	`{"workloads":[{"name":"w","cpu":[1],"ram_bytes":[2]}],"id":"a","options":{"workers":2,"cooldown":0,"migration_weight":0.5}}`,
	`{"id":"a","ID":"b","Id":null,"workloads":[{"name":"w"}]}`,
	`{"id":"a","disk_profile":{"deep":[[[{"x":"]}"}]]]},"workloads":[{"name":"w"}],"disk_profile" : [ 1 , 2 ] }`,
	`{"id":"a","disk_profile":null,"auto_machines":null,"options":null,"machines":null,"workloads":null}`,
	`{"id":5}`, `{"id":"a","machines":{}}`, `{"id":"a","auto_machines":[1]}`, `{"id":"a","options":{"workers":"2"}}`,
	`{"id":"a","options":{"workers":1.5}}`, `{"id":"\q"}`, `{"id":"a","unknown":tru}`, `{"id":"a","unknown":[1,}`,
	`{"id":"a","unknown":{"a"}}`, `{"id":"a",}`, `{,"id":"a"}`, `{"id":"a" "workloads":[]}`, `{"id"}`, `{"id":}`,
	`{"id":"a","x":1 2}`, `{"id":"a","x":1"y"}`, `{"id":"a","x":[1}`, `{"id":"a","x":{"a":1]}`, `{"id":"a","x":"open`,
	`{"id":"a","x":[1],"y":2]`, `{"id":"a","x":]}`, `{"id":"a","x":[}]`,
	"{\"i\u212Ad\":\"no such field\",\"wor\u212Aloads\":[{\"name\":\"kelvin\"}],\"option\u017f\":{\"worker\u017f\":3}}",
	`{"\u0069d":"escaped key","w\u006frkloads":[{"name":"w"}]}`,
	"{\"id\xff\":\"x\",\"id\":\"a\"}", "{\"id\":\"bad\xffutf8\"}", `{"id":"a","":{"":1}}`,
	`{"id":"a","workloads":[{"name":"w"}],"workloads":[{"cpu":[1]}]}`,
	`{"id":"a","workloads":[{"name":"w"}],"WORKLOADS":null}`,
	`{"id":"a","workloads":[{"name":"w"}],"workloads":5}`,
	registerSpaced,
}

// registerSpaced is a registration with whitespace wherever JSON allows it.
const registerSpaced = " {\t\"id\"\r:\n\"a\" , \"workloads\" : [ { \"name\" : \"w\" } ] , \"auto_machines\" : { \"count\" : 1 } } \n"

// recordCases are journal payloads beyond recordKinds: sibling keys,
// repeated and null operations, folded and escaped keys, every bulk
// position null, and a window record as the release before the splice
// wrote it (json.Marshal of the decoded window, omitempty fields and
// all), written out by hand.
var recordCases = []string{
	``, `null`, `{}`, `[]`, `{"rearm":{"fleet":"f"}}`, `{"rearm":{"fleet":"f"}} `, `{"rearm":{"fleet":"f"}}x`,
	`{"window":{"fleet":"f","workloads":[{"name":"db-00","step_seconds":300,"cpu":[0.1,0.1],"ram_bytes":[4000000000,4000000000]},{"name":"db-01","start_unix":1700000300,"step_seconds":300,"cpu":[0.12,0.12],"ram_bytes":[5000000000,5000000000],"ws_bytes":[1,2],"update_rate":[3,4],"disk_write_bps":[5,6],"replicas":2,"pin_to":0}]}}`,
	`{"window":{"fleet":"f","workloads":[],"extra":1}}`,
	`{"window":{"fleet":"f","workloads":[]},"rearm":{"fleet":"f"}}`,
	`{"rearm":{"fleet":"g"},"window":{"workloads":[{"name":"w"}],"fleet":"f"},"unknown":{"workloads":[5]}}`,
	`{"window":{"fleet":null,"workloads":[]}}`, `{"window":{"fleet":"f", "workloads":[]}}`,
	`{"window":{"fleet":"f","workloads":[{"cpu":["x"]}]}}`, `{"window":{"fleet":5,"workloads":[]}}`,
	`{"window":{"fleet":"f","workloads":[]}`, `{"window":{"fleet":"f"`, `{"window":{"fleet":`, `{"window":`,
	`{"window":null}`, `{"window":{}}`, `{"window":[]}`, `{"window":5}`, `{"window":{"fleet":"f","workloads":null}}`,
	`{"window":{"fleet":"f","fleet":"g","FLEET":null,"workloads":[]}}`,
	`{"window":{"fleet":"f","workloads":[{"name":"a"}]},"window":{"fleet":"g"}}`,
	`{"window":{"fleet":"f","workloads":[{"name":"a"}]},"window":null}`,
	`{"window":null,"window":{"fleet":"f","workloads":[{"name":"a"}]}}`,
	`{"window":{"fleet":"f","workloads":[{"name":"a"}],"workloads":[{"cpu":[1]}]}}`,
	"{\"\u212Aindow\":{\"fleet\":\"no such key\"},\"rear\\u006d\":{\"fleet\":\"f\"}}",
	"{\"WINDOW\":{\"FLEET\":\"f\",\"wor\u212Aloads\":[{\"name\":\"kelvin\"}]}}",
	`{"register":null}`, `{"register":{}}`, `{"register":5}`, `{"register":{"request":null,"incumbent":null}}`,
	`{"register":{"request":{},"incumbent":{"k":1,"units":[]}}}`, `{"register":{"request":5}}`, `{"register":{"request":[]}}`,
	`{"register":{"request":{"id":"a","workloads":null,"auto_machines":{"count":1}},"incumbent":{"k":1,"units":null}}}`,
	`{"register":{"incumbent":{"k":1,"units":[{"workload":"w","index":0,"replica":0,"machine":0}]},"request":{"workloads":[{"name":"w","cpu":[1],"ram_bytes":[2]}],"id":"a","disk_profile":{"a":[1,{"b":"}"}]}}}}`,
	`{"register":{"request":{"id":"a"},"request":{"workloads":[{"name":"w"}]}}}`,
	`{"register":{"request":{"id":"a"},"request":null}}`,
	`{"register":{"request":{"id":"a","workloads":[{"name":"w"}]}},"register":{"incumbent":{"k":2}}}`,
	`{"register":{"request":{"id":5}}}`, `{"register":{"incumbent":{"k":"x"}}}`, `{"register":{"request":{"id":"a","x":tru}}}`,
	`{"advance":{"fleet":"f","incumbent":{"k":1,"units":[]},"event":null}}`, `{"advance":{"fleet":5}}`, `{"advance":tru}`,
	`{"deregister":{"fleet":"f"},"rearm":null,"advance":null,"register":null,"window":null}`,
	`{"deregister":{"fleet":"f"},"deregister":{"fleet":"g"}}`, `{"rearm":{"fleet":"f","workloads":[1,2]}}`,
	`{"register":{"request":{"id":"a","workloads":[{"name":"w","cpu":[1],"ram_bytes":[2]}],"auto_machines":{"count":1},"options":{"workers":2,"cooldown":1}},"incumbent":{"k":1,"units":[{"workload":"w","index":0,"replica":0,"machine":0}]}}}`,
}

// snapshotCases are snapshots: null, absent, empty and repeated values at
// every position restoreSession and toHistory branch on.
var snapshotCases = []string{
	``, `null`, `{}`, `[]`, `{"fleets":null}`, `{"fleets":[]}`, `{"fleets":{}}`, `{"fleets":5}`, `{"fleets":[null]}`,
	`{"fleets":[{}]}`, `{"fleets":[{},null,{}]}`, `{"fleets":[5]}`, `{"fleets":[[]]}`, `{"fleets":[{}],}`, `{"fleets":[{},]}`,
	`{"fleets":[{}]} x`, `{"fleets":[{}],"extra":{"fleets":[5]}}`, `{"extra":tru,"fleets":[]}`,
	`{"fleets":[{"request":null,"incumbent":null,"detector":{"windows":0,"armed":false,"cooldown":0}}]}`,
	`{"fleets":[{"request":{"id":"a","workloads":null},"history":null}]}`,
	`{"fleets":[{"request":{"id":"a","workloads":[]},"baseline":[],"history":[]}]}`,
	`{"fleets":[{"request":{"id":"a"},"baseline":null,"history":[null,[],[null],[{}]]}]}`,
	snapshotFull,
	`{"fleets":[{"history":{}}]}`, `{"fleets":[{"history":[5]}]}`, `{"fleets":[{"history":[{}]}]}`, `{"fleets":[{"history":[[5]]}]}`,
	`{"fleets":[{"baseline":{}}]}`, `{"fleets":[{"baseline":[5]}]}`, `{"fleets":[{"request":[]}]}`, `{"fleets":[{"request":{"workloads":{}}}]}`,
	`{"fleets":[{"detector":null,"events":null,"acks":null,"failures":null}]}`, `{"fleets":[{"failures":1.5}]}`,
	`{"fleets":[{"detector":{"windows":"x"}}]}`, `{"fleets":[{"acks":[{"start_unix":1e3}]}]}`, `{"fleets":[{"x":[1,}]}`,
	`{"fleets":[{"history":[[{"name":"a"}]],"history":[[{"cpu":[1]}]]}]}`,
	`{"fleets":[{"baseline":[{"name":"a"}],"Baseline":null}]}`,
	`{"fleets":[{"request":{"id":"a"}}],"fleets":[{"failures":3}]}`,
	"{\"FLEETS\":[{\"REQUEST\":{\"ID\":\"a\",\"wor\u212Aloads\":[{\"name\":\"kelvin\"}]},\"hi\u017ftory\":[[{\"name\":\"long s\"}]],\"ba\\u0073eline\":[{\"name\":\"escaped\"}]}]}",
	" { \"fleets\" : [ { \"request\" : { \"id\" : \"a\" } , \"history\" : [ [ ] , null ] , \"failures\" : 1 } ] } ",
	`{"fleets":[{"request":{"id":"a","workloads":[{"name":"w","cpu":[1],"ram_bytes":[2]}],"auto_machines":{"count":1},"options":{"workers":2}},"incumbent":{"k":1,"units":[]}}]}`,
}

// snapshotFull is a snapshot with every FleetSnapshot field set.
const snapshotFull = `{"fleets":[{"history":[[{"name":"w","cpu":[1,2],"ram_bytes":[3,4]}],[{"name":"w","cpu":[5,6],"ram_bytes":[7,8]}]],"baseline":[{"name":"w","cpu":[9]}],"detector":{"windows":2,"armed":true,"cooldown":1},"events":[{"window":1,"trigger":"t"},null],"acks":[{"start_unix":5,"window":1,"triggered":true}],"failures":2,"incumbent":{"k":1,"units":[]},"request":{"id":"a","workloads":[{"name":"w","cpu":[1],"ram_bytes":[2]}],"auto_machines":{"count":1}}}]}`

// The templates that put a window body where the record and snapshot
// decoders read an object holding workloads (a registration is one
// itself) — a record's window or request, a snapshot's request — and
// where the walker only copies it: an unknown field's value.
var (
	recordTemplates   = []string{`{"window":%s}`, `{"register":{"incumbent":null,"request":%s}}`, `{"rearm":{"fleet":"f"},"unknown":%s}`}
	snapshotTemplates = []string{`{"fleets":[{"request":%s}]}`, `{"fleets":[{"history":[null,[]],"unknown":%s,"failures":1}]}`}
)

func TestDecodeRegisterMatchesEncodingJSON(t *testing.T) {
	for _, doc := range append(wrapCases(`%s`), registerCases...) {
		checkDecodeRegister(t, []byte(doc))
	}
	checkDecodeRegister(t, register197(t))
	checkDecodeRegister(t, window197(t))
}

// TestDecodeRecordMatchesEncodingJSON is the replay-shape table: each of
// the five kinds as json.Marshal writes it, the window as windowPayload
// splices it, records with sibling keys and with the operation key
// repeated (recordCases) all decode to what encoding/json makes of them.
func TestDecodeRecordMatchesEncodingJSON(t *testing.T) {
	for _, rw := range recordKinds() {
		doc := mustJSON(rw)
		checkDecodeRecord(t, doc)
		if got, err := decodeRecord(doc); err != nil || !reflect.DeepEqual(got, rw) {
			t.Errorf("decodeRecord(%s) = %+v, %v: not the record marshalled", clip(doc), got, err)
		}
	}
	_, span, err := decodeWindow([]byte(` { "Workloads" : [ {"name":"w","cpu":[1e0, 2.50],"ram_bytes":[3]} , null ] } `))
	if err != nil {
		t.Fatal(err)
	}
	spliced, err := windowPayload(&RecordWire{Window: &WindowRecord{Fleet: `a"b`}}, span)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodeRecord(t, spliced)
	for _, doc := range append(wrapCases(recordTemplates...), recordCases...) {
		checkDecodeRecord(t, []byte(doc))
	}
	checkDecodeRecord(t, register197(t))

	// What a repeated operation key does, which checkDecodeRecord leaves
	// open: the later value stands alone, and a later null clears.
	for _, tc := range []struct {
		doc  string
		want *RecordWire
	}{
		{`{"window":{"fleet":"f","workloads":[{"name":"a"}]},"window":{"workloads":[{"cpu":[null]}]}}`,
			&RecordWire{Window: &WindowRecord{Workloads: []WorkloadWire{{CPU: []float64{0}}}}}},
		{`{"window":{"fleet":"f","workloads":[{"name":"a"}]},"window":null,"rearm":{"fleet":"f"}}`,
			&RecordWire{Rearm: &RearmRecord{Fleet: "f"}}},
		{`{"register":{"request":{"id":"a","workloads":[{"name":"a"}]},"request":null}}`,
			&RecordWire{Register: &RegisterRecord{}}},
		{`{"register":{"request":{"id":"a","workloads":[{"name":"a"}]},"request":{"id":"b"}}}`,
			&RecordWire{Register: &RegisterRecord{Request: &RegisterRequest{ID: "b"}}}},
	} {
		if got, err := decodeRecord([]byte(tc.doc)); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %s, %v, want %s", tc.doc, mustJSON(got), err, mustJSON(tc.want))
		}
	}
}

func TestDecodeSnapshotMatchesEncodingJSON(t *testing.T) {
	for _, doc := range append(wrapCases(snapshotTemplates...), snapshotCases...) {
		checkDecodeSnapshot(t, []byte(doc))
	}
	checkDecodeSnapshot(t, snapshot197(t))
}

// TestDecodeTruncated cuts one document per decoder at every byte: each
// prefix is rejected, as by encoding/json, without a panic.
func TestDecodeTruncated(t *testing.T) {
	for _, tc := range []struct {
		doc   []byte
		check func(*testing.T, []byte)
	}{
		{[]byte(registerSpaced), checkDecodeRegister},
		{mustJSON(recordKinds()[0]), checkDecodeRecord},
		{[]byte(snapshotFull), checkDecodeSnapshot},
	} {
		if !json.Valid(tc.doc) {
			t.Fatalf("not a valid document to cut: %s", clip(tc.doc))
		}
		for n := range tc.doc {
			tc.check(t, tc.doc[:n])
		}
	}
}

// TestDecodeNestingLimit: a residual is decoded on its own, nearer the
// top than its pairs sat in the document, so the walker counts their
// nesting from where they were. Each decoder accepts a document at
// encoding/json's 10000 levels and refuses the next.
func TestDecodeNestingLimit(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct {
		name   string
		check  func(*testing.T, []byte)
		doc    string // %s is an unknown field's value
		levels int    // objects and arrays around that value
	}{
		{"register", checkDecodeRegister, `{"id":"a","disk_profile":%s}`, 1},
		{"register workload", checkDecodeRegister, `{"workloads":[{"x":%s}]}`, 3},
		{"record", checkDecodeRecord, `{"x":%s}`, 1},
		{"rearm record", checkDecodeRecord, `{"rearm":{"fleet":"f","x":%s}}`, 2},
		{"window record", checkDecodeRecord, `{"window":{"x":%s}}`, 2},
		{"window record workload", checkDecodeRecord, `{"window":{"workloads":[{"x":%s}]}}`, 4},
		{"register record", checkDecodeRecord, `{"register":{"x":%s}}`, 2},
		{"register record request", checkDecodeRecord, `{"register":{"request":{"disk_profile":%s}}}`, 3},
		{"register record workload", checkDecodeRecord, `{"register":{"request":{"workloads":[{"x":%s}]}}}`, 5},
		{"snapshot", checkDecodeSnapshot, `{"x":%s}`, 1},
		{"snapshot fleet", checkDecodeSnapshot, `{"fleets":[{"x":%s}]}`, 3},
		{"snapshot request", checkDecodeSnapshot, `{"fleets":[{"request":{"x":%s}}]}`, 4},
		{"snapshot request workload", checkDecodeSnapshot, `{"fleets":[{"request":{"workloads":[{"x":%s}]}}]}`, 6},
		{"snapshot baseline workload", checkDecodeSnapshot, `{"fleets":[{"baseline":[{"x":%s}]}]}`, 5},
		{"snapshot history workload", checkDecodeSnapshot, `{"fleets":[{"history":[[{"x":%s}]]}]}`, 6},
	} {
		atLimit := []byte(strings.Replace(tc.doc, "%s", nest(maxNesting-tc.levels), 1))
		pastIt := []byte(strings.Replace(tc.doc, "%s", nest(maxNesting-tc.levels+1), 1))
		if !json.Valid(atLimit) || json.Valid(pastIt) {
			t.Fatalf("%s: the case does not straddle encoding/json's limit", tc.name)
		}
		tc.check(t, atLimit)
		tc.check(t, pastIt)
	}
}

// TestDecodedValuesOwnTheirBytes: a session keeps its registration for
// every later snapshot, so nothing a decoder returns may point into the
// document it read — strings, the raw disk profile and series alike.
// Overwriting the document must not change the value.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	doc := mustJSON(recordKinds()[0])
	want, err := decodeRecord(doc)
	if err != nil {
		t.Fatal(err)
	}
	scratch := append([]byte(nil), doc...)
	got, err := decodeRecord(scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scratch {
		scratch[i] = 'x'
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the decoded record changed with its document: %s", clip(mustJSON(got)))
	}
}

// FuzzDecodeRegister, FuzzDecodeRecord and FuzzDecodeSnapshot are the
// differential fuzz between the walker's entry points and encoding/json
// (see checkDecode for what must agree), the first through the
// speculative split whenever GOMAXPROCS is 2 or more.
func FuzzDecodeRegister(f *testing.F) {
	splitSmall(f)
	for _, doc := range append(wrapCases(`%s`), registerCases...) {
		f.Add([]byte(doc))
	}
	f.Add(register197(f))
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkDecodeRegister(t, doc)
	})
}

func FuzzDecodeRecord(f *testing.F) {
	for _, rw := range recordKinds() {
		f.Add(mustJSON(rw))
	}
	for _, doc := range append(wrapCases(recordTemplates...), recordCases...) {
		f.Add([]byte(doc))
	}
	f.Add(mustJSON(&RecordWire{Window: &WindowRecord{Fleet: "all-197", Workloads: all197(1.003)}}))
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkDecodeRecord(t, doc)
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	for _, doc := range append(wrapCases(snapshotTemplates...), snapshotCases...) {
		f.Add([]byte(doc))
	}
	f.Add(snapshot197(f))
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkDecodeSnapshot(t, doc)
	})
}

// benchDecode runs a decoder and json.Unmarshal into the same struct
// over one document.
func benchDecode[T any](b *testing.B, doc []byte, decode func([]byte) (*T, error)) {
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		defer reportSlowNumbers(b, slowNumbers.Load())
		for i := 0; i < b.N; i++ {
			if _, err := decode(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(doc, new(T)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeRegister197 and BenchmarkDecodeSnapshot197: the fast
// halves' allocs/op are pinned in BENCH_counts.json (make bench-counts),
// so a decoder pointed back at reflection fails on a count — about 1k
// against 8k, 4k against 32k — not on a stopwatch.
func BenchmarkDecodeRegister197(b *testing.B) {
	benchDecode(b, register197(b), decodeRegister)
}

func BenchmarkDecodeSnapshot197(b *testing.B) {
	benchDecode(b, snapshot197(b), decodeSnapshot)
}
