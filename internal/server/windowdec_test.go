package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

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
	if rec, ok := decodeWindowRecord(payload); !ok || !reflect.DeepEqual(rec, want) {
		t.Fatalf("decodeWindowRecord(spliced) = %+v, %v, want %+v", rec, ok, want)
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

// TestDecodeWindowRecord pins replay's fast path and its fallbacks.
func TestDecodeWindowRecord(t *testing.T) {
	wire := testWorkloads(3, 4, 1.0)
	for _, id := range []string{"f", `a"b`, "flotte-é", "<&>", "a\\b"} {
		marshalled := mustJSON(&RecordWire{Window: &WindowRecord{Fleet: id, Workloads: wire}})
		rec, ok := decodeWindowRecord(marshalled)
		if !ok || rec.Fleet != id || !reflect.DeepEqual(rec.Workloads, wire) {
			t.Errorf("fleet %q: json.Marshal-built record decoded to %+v, %v", id, rec, ok)
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
	for _, payload := range []string{
		`{"rearm":{"fleet":"f"}}`,
		`{"window":{"fleet":"f","workloads":[],"extra":1}}`,
		`{"window":{"fleet":"f","workloads":[]},"rearm":{"fleet":"f"}}`,
		`{"window":{"fleet":null,"workloads":[]}}`,
		`{"window":{"fleet":"f", "workloads":[]}}`,
		`{"window":{"fleet":"f","workloads":[{"cpu":["x"]}]}}`,
		`{"window":{"fleet":"f","workloads":[]}} `,
		`{"window":{"fleet":"f","workloads":[]}`,
		`{"window":{"fleet":"f"`,
		`{"window":{"fleet":`,
	} {
		if rec, ok := decodeWindowRecord([]byte(payload)); ok {
			t.Errorf("%s: fast path took it (%+v); it is encoding/json's", payload, rec)
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
// and encoding/json (see checkDecodeWindow for what must agree).
func FuzzDecodeWindow(f *testing.F) {
	for _, body := range decodeCases {
		f.Add([]byte(body))
	}
	f.Add(window197(f))
	f.Add(mustJSON(WindowRequest{Workloads: testWorkloads(3, 4, 1.0)}))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeWindow(t, body)
	})
}

func BenchmarkDecodeWindow197(b *testing.B) {
	body := window197(b)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
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
