package server

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kairos/internal/cpu"
)

// splitSmall lowers the chunk minimum for the rest of tb, so that a
// document of a few bytes splits on every core GOMAXPROCS gives: the seam
// the split tests, FuzzDecodeWindow and FuzzDecodeRegister drive the
// speculative decode through.
func splitSmall(tb testing.TB) {
	was := splitChunkMin
	splitChunkMin = 1
	tb.Cleanup(func() { splitChunkMin = was })
}

// liveDecode is what the two live decoders make of one document: the
// window's workloads, span and error, the registration and its error, and
// the numbers the two sent to strconv.
type liveDecode struct {
	window      []WorkloadWire
	span        []byte
	windowErr   string
	register    *RegisterRequest
	registerErr string
	slow        int64
}

func decodeLive(doc []byte) liveDecode {
	before := slowNumbers.Load()
	var out liveDecode
	var err error
	out.window, out.span, err = decodeWindow(doc)
	out.windowErr = fmt.Sprint(err)
	out.register, err = decodeRegister(doc)
	out.registerErr = fmt.Sprint(err)
	out.slow = slowNumbers.Load() - before
	return out
}

// splitCases are window and registration bodies built so that a '},{'
// that is not an element boundary of the workloads array — in a name, in
// an unknown field's value — sits where a chunk may start, with a null
// element and whitespace at the boundaries, errors before, at and after
// them and inside a guess, and the workloads key repeated.
var splitCases = []string{
	`{"workloads":[{"name":"a},{b","cpu":[1]},{"name":"c"},{"name":"},{"}]}`,
	`{"workloads":[{"x":[{"a":1},{"b":2}],"cpu":[1,2]},{"y":"},{","cpu":[3]},{"z":{"w":[{},{}]}}]}`,
	`{"workloads":[{"x":[{"a":1},{"cpu":[0.12345678901234567891]}],"name":"a"},{"name":"b"}]}`,
	`{"workloads":[{"name":"a"},null,{"name":"b"},null,null,{"name":"c"},null]}`,
	`{"workloads":[null,{"name":"a"},{}, {} ,{}]}`,
	"{\"workloads\":[{\"name\":\"a\"} ,\n {\"name\":\"b\"}\n,\n{\"name\":\"c\"}\t,\t{\"name\":\"d\"}\r\n]}",
	`{"workloads":[{"name":"a"},{"name":5},{"name":"c"},{"name":"d"}]}`,
	`{"workloads":[{"name":"a"},{x},{"name":"c"},{"name":"d"}]}`,
	`{"workloads":[{"name":"a"},{"name":"b"},{"name":"c"}`,
	`{"workloads":[{"name":"a"},{"name":"b"},{"name":"c"},]}`,
	`{"workloads":[{"name":"a"},{"name":"b"}{"name":"c"},{"name":"d"}]}`,
	`{"workloads":[{"name":"a"},{"name":"b","cpu":[1e999]},{"name":"c"},{"name":"d"}]}`,
	`{"workloads":[{"name":"a},{\"bad"},{"name":"b"},{"name":"c"}]}`,
	`{"workloads":[{"x":[{"a":1},{"cpu":[1,}]}],"name":"a"},{"name":"b"},{"name":"c"}]}`,
	`{"workloads":[{"name":"a"},{"name":"b"}],"workloads":[{"name":"c"},{"name":"d"}]}`,
	`{"workloads":[{"name":"a"},{"name":"b"}],"WORKLOADS":null,"workloads":[{"cpu":[1]},{"cpu":[2]},{"cpu":[3]}]}`,
	`{"id":"x","workloads":[{"name":"a"},{"name":"b"},{"name":"c"}],"auto_machines":{"count":3},"extra":[{"a":1},{"b":2}]}`,
	`{"id":"},{","extra":[{"workloads":[{"a":1},{"b":2}]}],"workloads":[{"name":"a"},{"name":"b"}]}`,
}

// splitDocs are the documents the split is held to the one-goroutine
// decode on: the 197-server window and registration, each corrupted just
// before, at and just after the start of a second chunk, and at each
// start of eight chunks, the
// cases above, a window of twelve small workloads cut and corrupted at
// every element boundary, and the window and registration corners.
func splitDocs(tb testing.TB) [][]byte {
	var docs [][]byte
	for _, doc := range [][]byte{window197(tb), register197(tb)} {
		docs = append(docs, doc)
		from := bytes.IndexByte(doc, '[') + 1
		for _, n := range []int{2, 8} {
			for _, s := range chunkStarts(doc, from, n) {
				for _, at := range []int{s - 3, s, s + 1, s + 40} {
					if n == 8 && at != s {
						continue
					}
					bad := bytes.Clone(doc)
					bad[at] = 'x'
					docs = append(docs, bad)
				}
			}
		}
	}
	for _, s := range splitCases {
		docs = append(docs, []byte(s))
	}
	twelve := mustJSON(WindowRequest{Workloads: testWorkloads(12, 6, 1.0)})
	docs = append(docs, twelve)
	for i := 1; i < len(twelve); i++ {
		if twelve[i] == '{' && twelve[i-1] == ',' {
			for _, at := range []int{i - 3, i - 1, i, i + 2} {
				bad := bytes.Clone(twelve)
				bad[at] = 'x'
				docs = append(docs, bad, twelve[:at])
			}
		}
	}
	for _, s := range append(append([]string{}, decodeCases...), registerCases...) {
		docs = append(docs, []byte(s))
	}
	return docs
}

// TestDecodeSplitMatchesSequential holds decodeWindow and decodeRegister
// to their one-goroutine decode at GOMAXPROCS 1: the same values, error
// messages, span and slow numbers at 2, 4 and 8, with chunks as small as
// a byte.
func TestDecodeSplitMatchesSequential(t *testing.T) {
	splitSmall(t)
	for _, doc := range splitDocs(t) {
		var want liveDecode
		atProcs(1, func() { want = decodeLive(doc) })
		for _, procs := range []int{2, 4, 8} {
			atProcs(procs, func() {
				if got := decodeLive(doc); !sameBits(got, want) {
					t.Fatalf("GOMAXPROCS=%d: window %s, %q, %d slow; register %s\nwant window %s, %q, %d slow; register %s\ndoc: %s",
						procs, got.windowErr, clip(got.span), got.slow, got.registerErr,
						want.windowErr, clip(want.span), want.slow, want.registerErr, clip(doc))
				}
			})
		}
	}
}

// TestSplitAnyChunkStarts drives splitWorkloads with chunk starts put at
// every '{' of a document past its first element, and at every pair of
// them, true boundaries or not: what it decodes, where it stops, why, and
// the numbers it sends to strconv are always the plain loop's.
func TestSplitAnyChunkStarts(t *testing.T) {
	docs := []string{`{"workloads":[` + strings.Repeat(`{"cpu":[1,2]},`, 3) + `{}]}`}
	for _, s := range splitCases {
		if strings.HasPrefix(s, `{"workloads":[`) {
			docs = append(docs, s)
		}
	}
	twelve := mustJSON(WindowRequest{Workloads: testWorkloads(12, 2, 1.0)})
	docs = append(docs, string(twelve), string(twelve[:len(twelve)-40]))
	type outcome struct {
		out  []WorkloadWire
		end  int
		slow int64
		err  string
	}
	const from = len(`{"workloads":[`)
	decode := func(doc []byte, starts []int) outcome {
		d := windowDecoder{b: doc, i: from}
		var out []WorkloadWire
		var err error
		if starts == nil {
			out, _, err = elements(&d, nil, func(w *WorkloadWire) error { return d.workload(3, w) }, nil)
		} else {
			out, err = d.splitWorkloads(2, starts)
		}
		if err != nil {
			d.i = 0 // an error's offset is in its message
		}
		return outcome{out, d.i, d.slow, fmt.Sprint(err)}
	}
	for _, s := range docs {
		doc := []byte(s)
		want := decode(doc, nil)
		var opens []int
		for i := from + 1; i < len(doc); i++ {
			if doc[i] == '{' {
				opens = append(opens, i)
			}
		}
		for a, p := range opens {
			for _, starts := range append([][]int{{p}}, pairsFrom(p, opens[a+1:])...) {
				if got := decode(doc, starts); !sameBits(got, want) {
					t.Fatalf("chunks at %v: %+v\nwant %+v\ndoc: %s", starts, got, want, clip(doc))
				}
			}
		}
	}
}

// pairsFrom returns {p, q} for every q of qs.
func pairsFrom(p int, qs []int) [][]int {
	var out [][]int
	for _, q := range qs {
		out = append(out, []int{p, q})
	}
	return out
}

// TestSplitOutcomes: the 197-server window and registration adopt every
// chunk at GOMAXPROCS 2, 4 and 8, at the chunk minimum the daemon runs
// with, and split only over the CPU budget's free slots; a guess
// discarded after it met a number for strconv adds nothing to slowNumbers.
func TestSplitOutcomes(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		atProcs(procs, func() {
			for _, doc := range [][]byte{window197(t), register197(t)} {
				adopted, discarded := splitAdopted.Load(), splitDiscarded.Load()
				if got := decodeLive(doc); got.windowErr != "<nil>" || got.registerErr != "<nil>" {
					t.Fatalf("GOMAXPROCS=%d: %s / %s", procs, got.windowErr, got.registerErr)
				}
				// Each document goes through both decoders.
				if a, d := splitAdopted.Load()-adopted, splitDiscarded.Load()-discarded; a != 2*int64(procs-1) || d != 0 {
					t.Errorf("GOMAXPROCS=%d: %d chunks adopted, %d discarded, want %d and 0", procs, a, d, 2*(procs-1))
				}
			}
		})
	}

	atProcs(4, func() {
		for _, tc := range []struct{ held, chunks int }{{1, 2}, {3, 0}} {
			adopted := splitAdopted.Load()
			held := cpu.Take(tc.held)
			_, _, err := decodeWindow(window197(t))
			for range held {
				cpu.Release()
			}
			if n := splitAdopted.Load() - adopted; err != nil || held != tc.held || n != int64(tc.chunks) {
				t.Errorf("GOMAXPROCS=4, %d of 3 slots held: %d chunks adopted, %v; want %d", held, n, err, tc.chunks)
			}
		}
	})

	splitSmall(t)
	doc := []byte(`{"workloads":[{"name":"` + strings.Repeat("a", 200) + `","x":[{"a":1},{"cpu":[0.12345678901234567891]}]},{"name":"b"}]}`)
	guess := bytes.Index(doc, []byte(`{"cpu"`))
	if starts := chunkStarts(doc, len(`{"workloads":[`), 2); !reflect.DeepEqual(starts, []int{guess}) {
		t.Fatalf("the chunk starts at %v, want the guess at %d", starts, guess)
	}
	atProcs(2, func() {
		discarded := splitDiscarded.Load()
		before := slowNumbers.Load()
		if _, _, err := decodeWindow(doc); err != nil {
			t.Fatal(err)
		}
		if n := splitDiscarded.Load() - discarded; n != 1 {
			t.Errorf("%d chunks discarded, want the guess", n)
		}
		if n := slowNumbers.Load() - before; n != 0 {
			t.Errorf("the discarded guess added %d slow numbers", n)
		}
	})
}

// TestSplitLeavesNoGoroutines: every chunk's goroutine is gone when the
// decode returns, whether it adopted the chunk, discarded it or failed,
// and decodes that split at once do not disturb each other.
func TestSplitLeavesNoGoroutines(t *testing.T) {
	splitSmall(t)
	atProcs(8, func() {
		base := runtime.NumGoroutine()
		before := splitAdopted.Load() + splitDiscarded.Load()
		for _, s := range splitCases {
			decodeLive([]byte(s))
		}
		doc := window197(t)
		want := decodeLive(doc)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := decodeLive(doc); !sameBits(got, want) {
					t.Error("a decode beside two others differs from the one alone")
				}
			}()
		}
		wg.Wait()
		if splitAdopted.Load()+splitDiscarded.Load() == before {
			t.Fatal("nothing split")
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%d goroutines after the decodes, %d before", n, base)
		}
	})
}
