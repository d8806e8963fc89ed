package server

// The wire decoder for workload series. The control plane's bulk traffic
// is one schema, []WorkloadWire — a 197-server observation window is
// 2.2 MB of JSON holding 113k floats, a registration the same again, a
// snapshot that four times over — and reflection-driven encoding/json
// spent more on decoding one than the journal spent making it durable.
// This file decodes that schema at every position the daemon reads it:
// a window (decodeWindow), a registration (decodeRegister), a journal
// record of any kind (decodeRecord) and a snapshot (decodeSnapshot). It
// is a byte scanner that converts numbers in the pass that checks their
// grammar (float; strconv gets only what that cannot settle) and hands what
// is not a workload array to encoding/json: object walks the
// structs around the arrays, gives the values of the keys listed in the
// tables below to workloadsValue, and copies every other key:value pair
// verbatim into a small residual object that json.Unmarshal decodes into
// the same struct it always did. So ids, machines, options, disk
// profiles, incumbents, events and acks are encoding/json's, and there is
// one number, string and series parser, live and on replay.
//
// Contract: each entry point accepts exactly the documents
// json.Unmarshal into its struct accepts, and yields the same value.
// That includes encoding/json's corners — keys match case-insensitively
// under Unicode simple folding, null leaves a scalar or a struct
// untouched and clears a slice or pointer, a repeated key decodes over
// what the earlier one left (array elements in place), integers reject
// fractions and exponents, floats out of range are errors, unknown
// fields are skipped only once their values are known to be valid JSON,
// and documents nested deeper than 10000 levels are refused.
// FuzzDecodeWindow, FuzzDecodeRegister, FuzzDecodeRecord and
// FuzzDecodeSnapshot hold the two decoders together.
//
// The live entry points, decodeWindow and decodeRegister, split a large
// workloads array over the helper slots the CPU budget has free
// (liveWorkloads): each chunk after the first starts at a '}' ws ',' ws
// '{' found past an even split point and is decoded on a goroutine by the
// same code, and is adopted only when the decode before it, having
// consumed a separator of the array itself, lands exactly on its start.
// Any other is discarded with its numbers for slowNumbers, so a '},{'
// inside a name or an unknown field costs a core, never a different
// result: values, error and offset, span and slow count are the
// one-goroutine decode's. Replay already decodes records on the free cores
// and the snapshot is planned to become records, so decodeRecord and
// decodeSnapshot do not split.
//
// One deliberate difference from json.Unmarshal, so that the bytes the
// journal keeps are the whole story: a repeated key from the tables
// below replaces the earlier value outright instead of decoding over it
// (struct fields and array elements in place), so the span decodeWindow
// returns, decoded on its own, is the window that was applied. Two more
// from the json.Decoder the window handler once ran: anything but
// whitespace after the top-level value is an error rather than silently
// ignored, and a window's nesting is counted as the journal record nests
// it, one level deeper than the request does, so a body encoding/json
// would take at its 10000-level limit is refused rather than journaled as
// a record encoding/json could not read back.
//
// Nothing decoded aliases the document: names are copied, series are
// parsed, and a residual is a buffer of its own (so a json.RawMessage
// decoded from it is too). A session keeps its registration for every
// later snapshot; it must not pin the 2 MB body it arrived in.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"unicode"

	"kairos/internal/cpu"
)

// maxNesting is encoding/json's nesting limit; deeper documents are
// rejected there, so they are rejected here. Every decoding method below
// that can meet an unknown field takes depth, the number of objects and
// arrays enclosing the value it decodes, and passes it down.
const maxNesting = 10000

// The WorkloadWire keys, indexed by the field constants below.
var workloadKeys = [...]string{
	"name", "start_unix", "step_seconds", "cpu", "ram_bytes", "ws_bytes",
	"update_rate", "disk_write_bps", "replicas", "pin_to",
}

const (
	keyName = iota
	keyStartUnix
	keyStepSeconds
	keyCPU
	keyRAMBytes
	keyWSBytes
	keyUpdateRate
	keyDiskWriteBps
	keyReplicas
	keyPinTo
)

// The walker's tables: per struct, the keys whose values hold workload
// series, which object hands to this file's decoders; every other key of
// the struct is encoding/json's. A record kind or snapshot field that
// carries series gets a name here and a case in its struct's method
// below, not a decoder of its own.
var (
	// WindowRequest, WindowRecord and RegisterRequest.
	workloadsKey = [...]string{"workloads"}
	// RecordWire: the record kinds that carry series.
	recordKeys = [...]string{"register", "window"}
	// RegisterRecord.
	requestKey = [...]string{"request"}
	// SnapshotWire.
	fleetsKey = [...]string{"fleets"}
	// FleetSnapshot.
	fleetKeys = [...]string{"request", "baseline", "history"}
)

const (
	keyRegister = iota
	keyWindow
)

const (
	keyRequest = iota
	keyBaseline
	keyHistory
)

// windowDecoder is the scanner state: the document and the read offset.
type windowDecoder struct {
	b []byte
	i int
	// seriesLen is the length of the last series decoded. Every series of
	// a window has the same length, so it sizes the next one exactly.
	seriesLen int
	// slow counts the numbers float handed to strconv; document adds them
	// to slowNumbers.
	slow int64
}

// decodeWindow decodes a POST /v1/fleets/{id}/windows body. span is the
// byte range of the "workloads" value it validated (nil when the body
// has none): valid JSON that decodes, on its own, to workloads.
func decodeWindow(body []byte) (workloads []WorkloadWire, span []byte, err error) {
	d := windowDecoder{b: body}
	err = d.document(func() error {
		// Depth 1: the body's top level counts as the record's window object.
		// It has no field but workloads, so its residual decodes into nothing.
		return d.object(1, workloadsKey[:], new(struct{}), func(int) (err error) {
			start := d.i
			workloads, err = d.liveWorkloads(2)
			span = d.b[start:d.i:d.i]
			return err
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return workloads, span, nil
}

// decodeRegister decodes a POST /v1/fleets body.
func decodeRegister(body []byte) (*RegisterRequest, error) {
	d := windowDecoder{b: body}
	req := new(RegisterRequest)
	err := d.document(func() error {
		return d.object(0, workloadsKey[:], req, func(int) (err error) {
			req.Workloads, err = d.liveWorkloads(1)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// decodeRecord decodes a journal record's payload, whichever kind it is
// and whether json.Marshal or windowPayload wrote it.
func decodeRecord(payload []byte) (*RecordWire, error) {
	d := windowDecoder{b: payload}
	rw := new(RecordWire)
	err := d.document(func() error {
		return d.object(0, recordKeys[:], rw, func(field int) error {
			if field == keyRegister {
				reg, err := pointee(&d, &rw.Register)
				if reg == nil {
					return err
				}
				return d.object(1, requestKey[:], reg, func(int) error {
					return d.requestValue(2, &reg.Request)
				})
			}
			win, err := pointee(&d, &rw.Window)
			if win == nil {
				return err
			}
			return d.workloadsObject(1, win, &win.Workloads)
		})
	})
	if err != nil {
		return nil, err
	}
	return rw, nil
}

// decodeSnapshot decodes a journal snapshot.
func decodeSnapshot(doc []byte) (*SnapshotWire, error) {
	d := windowDecoder{b: doc}
	snap := new(SnapshotWire)
	err := d.document(func() error {
		return d.object(0, fleetsKey[:], snap, func(int) (err error) {
			snap.Fleets, err = arrayOf(&d, "fleets", func(fs *FleetSnapshot) error {
				return d.fleetSnapshot(2, fs)
			})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// fleetSnapshot decodes the FleetSnapshot object at the read offset.
func (d *windowDecoder) fleetSnapshot(depth int, fs *FleetSnapshot) error {
	return d.object(depth, fleetKeys[:], fs, func(field int) (err error) {
		switch field {
		case keyRequest:
			err = d.requestValue(depth+1, &fs.Request)
		case keyBaseline:
			fs.Baseline, err = d.workloadsValue(depth + 1)
		case keyHistory:
			fs.History, err = arrayOf(d, "history", func(w *[]WorkloadWire) (err error) {
				*w, err = d.workloadsValue(depth + 2)
				return err
			})
		}
		return err
	})
}

// requestValue decodes a "request" value into a *RegisterRequest field.
func (d *windowDecoder) requestValue(depth int, field **RegisterRequest) error {
	req, err := pointee(d, field)
	if req == nil {
		return err
	}
	return d.workloadsObject(depth, req, &req.Workloads)
}

// workloadsObject decodes the object at the read offset into dst, a
// struct whose one series field is *workloads under the "workloads" key:
// a RegisterRequest or a WindowRecord.
func (d *windowDecoder) workloadsObject(depth int, dst any, workloads *[]WorkloadWire) error {
	return d.object(depth, workloadsKey[:], dst, func(int) (err error) {
		*workloads, err = d.workloadsValue(depth + 1)
		return err
	})
}

// document decodes a whole document: the value at its top level, and
// nothing but whitespace around it.
func (d *windowDecoder) document(value func() error) error {
	d.space()
	err := value()
	slowNumbers.Add(d.slow)
	if err != nil {
		return err
	}
	d.space()
	if d.i < len(d.b) {
		return d.unexpected("after top-level value")
	}
	return nil
}

// object decodes the object at the read offset, depth levels deep, into
// the struct dst points to, as encoding/json would — null leaves dst as
// it is — except that the value of a key that is names[field] for
// encoding/json is bulk(field)'s to consume and store. Every other
// key:value pair is copied, in order and byte for byte, into a residual
// object for json.Unmarshal to decode into dst, which is where such a
// pair is validated and where a repeated key decodes over the earlier
// one. The pairs' extents are found by matching brackets outside
// strings: a valid value ends where its brackets match, so a residual
// of valid values is the object of exactly those pairs, and one holding
// an invalid value is itself invalid, as the document was.
func (d *windowDecoder) object(depth int, names []string, dst any, bulk func(field int) error) error {
	if isNull, err := d.null(); isNull {
		return err
	}
	if d.peek() != '{' {
		return d.unexpected("looking for an object")
	}
	d.i++
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	var rest []byte
	for more := true; more; {
		start := d.i
		field, err := d.key(names)
		if err != nil {
			return err
		}
		if field >= 0 {
			err = bulk(field)
		} else if err = d.extent(depth + 1); err == nil {
			if rest == nil {
				rest = append(rest, '{')
			} else {
				rest = append(rest, ',')
			}
			rest = append(rest, d.b[start:d.i]...)
		}
		if err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	if rest == nil {
		return nil
	}
	return json.Unmarshal(append(rest, '}'), dst)
}

// pointee makes way for the value at the read offset in a pointer field:
// a null clears the field and is consumed here, the result then nil;
// anything else gets a new struct to decode into.
func pointee[T any](d *windowDecoder, field **T) (*T, error) {
	if isNull, err := d.null(); isNull {
		*field = nil
		return nil, err
	}
	*field = new(T)
	return *field, nil
}

// arrayOf decodes the array at the read offset into a fresh slice: nil
// for null, empty for [], and otherwise one element per value, a null
// element left zero and any other decoded in place by elem.
func arrayOf[T any](d *windowDecoder, what string, elem func(*T) error) ([]T, error) {
	return array(d, what, func() ([]T, error) {
		out, _, err := elements(d, nil, elem, nil)
		return out, err
	})
}

// array decodes the array at the read offset: nil for null, empty for [],
// and otherwise what elems decodes from the first element on.
func array[T any](d *windowDecoder, what string, elems func() ([]T, error)) ([]T, error) {
	if isNull, err := d.null(); isNull {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.unexpected("looking for the " + what + " array")
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return []T{}, nil
	}
	return elems()
}

// elements appends the array's elements from the read offset to out: up to
// its ']' (more false), or to a separator stop, if set, says to end at.
func elements[T any](d *windowDecoder, out []T, elem func(*T) error, stop func(at int) bool) (_ []T, more bool, err error) {
	for more = true; more; {
		var zero T
		out = append(out, zero)
		isNull, err := d.null()
		if !isNull {
			err = elem(&out[len(out)-1])
		}
		if err != nil {
			return nil, false, err
		}
		if more, err = d.next(']'); err != nil {
			return nil, false, err
		}
		if more && stop != nil && stop(d.i) {
			break
		}
	}
	return out, more, nil
}

// splitChunkMin is the fewest bytes of array worth a goroutine. Tests
// lower it so that small documents split too.
var splitChunkMin = 256 << 10

// The chunks split off, by outcome, for /metrics.
var splitAdopted, splitDiscarded atomic.Int64

// chunk is a speculative run of elements from start on its own decoder d.
// The run's elements, the chunk it landed on (-1: the array's end) and
// its error are read once done is closed.
type chunk struct {
	start int
	stop  atomic.Bool // the chunk will not be adopted: return at the next separator
	done  chan struct{}
	out   []WorkloadWire
	next  int
	err   error
	d     windowDecoder
}

// splitWorkloads decodes a workloads array from the read offset and, on a
// goroutine each, from the chunk starts, adopting a chunk only where the
// decode before it lands on its start. No chunk outlives it.
func (d *windowDecoder) splitWorkloads(depth int, starts []int) ([]WorkloadWire, error) {
	chunks := make([]*chunk, len(starts))
	for k, start := range starts {
		chunks[k] = &chunk{start: start, done: make(chan struct{})}
	}
	// run decodes on dd until it lands on a chunk from next on, which it
	// returns (-1 at the array's end), or until quit.
	run := func(dd *windowDecoder, next int, quit *atomic.Bool) ([]WorkloadWire, int, error) {
		out, more, err := elements(dd, nil, func(w *WorkloadWire) error {
			return dd.workload(depth+1, w)
		}, func(at int) bool {
			for next < len(chunks) && chunks[next].start < at {
				next++
			}
			return next < len(chunks) && chunks[next].start == at || quit != nil && quit.Load()
		})
		if !more {
			next = -1
		}
		return out, next, err
	}
	b := d.b
	for k, c := range chunks {
		go func() {
			defer close(c.done)
			c.d = windowDecoder{b: b, i: c.start}
			c.out, c.next, c.err = run(&c.d, k+1, &c.stop)
		}()
	}

	out, next, err := run(d, 0, nil)
	adopted := 0
	for ; next >= 0 && err == nil; adopted++ {
		c := chunks[next]
		for _, passed := range chunks[:next] {
			passed.stop.Store(true)
		}
		<-c.done
		out = append(out, c.out...)
		d.i = c.d.i
		d.slow += c.d.slow
		next, err = c.next, c.err
	}
	for _, c := range chunks {
		c.stop.Store(true)
		<-c.done
	}
	splitAdopted.Add(int64(adopted))
	splitDiscarded.Add(int64(len(chunks) - adopted))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// chunkStarts returns the starts of chunks 1 to n-1 of b[from:], at most,
// nil for n < 2: for each of its even split points, the '{' of the first
// '}' ws ',' ws '{' past it and past the previous start.
func chunkStarts(b []byte, from, n int) []int {
	var starts []int
	at := from
	for k := 1; k < n; k++ {
		at = max(at, from+k*(len(b)-from)/n)
		for {
			end := bytes.IndexByte(b[at:], '}')
			if end < 0 {
				return starts
			}
			s := windowDecoder{b: b, i: at + end + 1}
			if s.space(); s.peek() == ',' {
				s.i++
				if s.space(); s.peek() == '{' {
					starts = append(starts, s.i)
					at = s.i
					break
				}
			}
			at = s.i
		}
	}
	return starts
}

// windowPayload builds a window record's journal payload around the
// received bytes: head's own encoding — the json.Marshal schema, fleet
// id quoted as json.Marshal quotes it — with span in place of the empty
// workloads value. The result is what json.Marshal would write for the
// decoded window, up to how the numbers are spelled.
func windowPayload(head *RecordWire, span []byte) ([]byte, error) {
	b, err := json.Marshal(head)
	if err != nil {
		return nil, err
	}
	const tail = `null}}`
	if head.Window == nil || head.Window.Workloads != nil || !bytes.HasSuffix(b, []byte(tail)) {
		return nil, fmt.Errorf("server: window record head %s does not end in an empty workloads value", b)
	}
	b = b[:len(b)-len(tail)]
	out := make([]byte, 0, len(b)+len(span)+2)
	out = append(out, b...)
	out = append(out, span...)
	return append(out, '}', '}'), nil
}

// errorf reports a decode error at the read offset.
func (d *windowDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s (offset %d)", fmt.Sprintf(format, args...), d.i)
}

// unexpected reports the byte at the read offset, or the end of input,
// as a syntax error in the given context.
func (d *windowDecoder) unexpected(context string) error {
	if d.i >= len(d.b) {
		return d.truncated()
	}
	return d.errorf("invalid character %q %s", d.b[d.i], context)
}

// truncated reports that the input ended inside a value.
func (d *windowDecoder) truncated() error {
	d.i = len(d.b)
	return d.errorf("unexpected end of JSON input")
}

// peek returns the byte at the read offset, 0 at the end of input.
func (d *windowDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// space skips JSON whitespace.
func (d *windowDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// consume advances past lit if the input continues with it.
func (d *windowDecoder) consume(lit string) bool {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// null consumes a null if one is next (anything else starting with an n
// is an error).
func (d *windowDecoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	if !d.consume("null") {
		return true, d.errorf("invalid literal, want null")
	}
	return true, nil
}

// next consumes the separator after an element of an object or array
// closed by end: more is true after a comma, false after end.
func (d *windowDecoder) next(end byte) (more bool, err error) {
	d.space()
	switch d.peek() {
	case ',':
		d.i++
		d.space()
		return true, nil
	case end:
		d.i++
		return false, nil
	}
	return false, d.unexpected("after a value")
}

// str scans the string token at the read offset and returns it with its
// quotes. simple reports that the content is its own decoding: bytes
// 0x20–0x7F with no escapes. Anything else is only delimited here, and
// validated by encoding/json when the caller decodes it.
func (d *windowDecoder) str() (tok []byte, simple bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.unexpected("looking for a string")
	}
	simple = true
	for i := d.i + 1; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			tok = d.b[d.i : i+1]
			d.i = i + 1
			return tok, simple, nil
		case c == '\\':
			simple = false
			i++
		case c < 0x20 || c >= 0x80:
			simple = false
		}
	}
	return nil, false, d.truncated()
}

// unquote decodes a string token from str.
func unquote(tok []byte, simple bool) (string, error) {
	if simple {
		return string(tok[1 : len(tok)-1]), nil
	}
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// key consumes an object key and its colon and returns the index in
// names of the field encoding/json would store it in, -1 for none.
func (d *windowDecoder) key(names []string) (int, error) {
	tok, simple, err := d.str()
	if err != nil {
		return 0, err
	}
	var field int
	if simple {
		field = matchASCII(tok[1:len(tok)-1], names)
	} else {
		s, err := unquote(tok, false)
		if err != nil {
			return 0, d.errorf("invalid object key %s: %v", tok, err)
		}
		field = matchFolded(s, names)
	}
	d.space()
	if d.peek() != ':' {
		return 0, d.unexpected("after object key")
	}
	d.i++
	d.space()
	return field, nil
}

// matchASCII finds an ASCII key among names, ignoring letter case.
func matchASCII(key []byte, names []string) int {
next:
	for f, name := range names {
		if len(name) != len(key) {
			continue
		}
		for j := 0; j < len(name); j++ {
			c := key[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[j] {
				continue next
			}
		}
		return f
	}
	return -1
}

// matchFolded finds a key among names the way encoding/json does: equal
// under Unicode simple case folding, so "wor\u212Aloads" (the Kelvin
// sign) is "workloads".
func matchFolded(key string, names []string) int {
next:
	for f, name := range names {
		j := 0
		for _, r := range key {
			if j == len(name) || foldRune(r) != foldRune(rune(name[j])) {
				continue next
			}
			j++
		}
		if j == len(name) {
			return f
		}
	}
	return -1
}

// foldRune returns the smallest rune of r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// workloadsValue decodes a workloads value — null or an array of workload
// objects and nulls, depth levels deep — into a fresh slice.
func (d *windowDecoder) workloadsValue(depth int) ([]WorkloadWire, error) {
	return arrayOf(d, "workloads", func(w *WorkloadWire) error {
		return d.workload(depth+1, w)
	})
}

// liveWorkloads is workloadsValue for the live entry points, in one chunk
// per helper slot it can take, plus the caller's, and at most one per
// splitChunkMin bytes left. The slots go back once the split has joined
// its chunks.
func (d *windowDecoder) liveWorkloads(depth int) ([]WorkloadWire, error) {
	return array(d, "workloads", func() ([]WorkloadWire, error) {
		if helpers := cpu.Take((len(d.b)-d.i)/splitChunkMin - 1); helpers > 0 {
			defer func() {
				for range helpers {
					cpu.Release()
				}
			}()
			if starts := chunkStarts(d.b, d.i, helpers+1); starts != nil {
				return d.splitWorkloads(depth, starts)
			}
		}
		out, _, err := elements(d, nil, func(w *WorkloadWire) error {
			return d.workload(depth+1, w)
		}, nil)
		return out, err
	})
}

// workload decodes the workload object at the read offset, depth levels
// deep, into w.
func (d *windowDecoder) workload(depth int, w *WorkloadWire) error {
	if d.peek() != '{' {
		return d.unexpected("looking for a workload object")
	}
	d.i++
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for more := true; more; {
		field, err := d.key(workloadKeys[:])
		if err != nil {
			return err
		}
		switch field {
		case keyName:
			err = d.stringValue(&w.Name)
		case keyStartUnix:
			err = d.intValue(&w.StartUnix, 64)
		case keyStepSeconds:
			if isNull, nerr := d.null(); isNull {
				err = nerr
			} else {
				w.StepSeconds, err = d.float()
			}
		case keyCPU:
			w.CPU, err = d.series(w.CPU)
		case keyRAMBytes:
			w.RAMBytes, err = d.series(w.RAMBytes)
		case keyWSBytes:
			w.WSBytes, err = d.series(w.WSBytes)
		case keyUpdateRate:
			w.UpdateRate, err = d.series(w.UpdateRate)
		case keyDiskWriteBps:
			w.DiskWriteBps, err = d.series(w.DiskWriteBps)
		case keyReplicas:
			n := int64(w.Replicas)
			err = d.intValue(&n, strconv.IntSize)
			w.Replicas = int(n)
		case keyPinTo:
			if isNull, nerr := d.null(); isNull {
				w.PinTo, err = nil, nerr
			} else {
				var n int64
				err = d.intValue(&n, strconv.IntSize)
				pin := int(n)
				w.PinTo = &pin
			}
		default:
			err = d.skipValue(depth + 1)
		}
		if err != nil {
			if field >= 0 {
				err = fmt.Errorf("%s: %w", workloadKeys[field], err)
			}
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// stringValue decodes a string into *dst; null leaves it as it is.
func (d *windowDecoder) stringValue(dst *string) error {
	if isNull, err := d.null(); isNull {
		return err
	}
	tok, simple, err := d.str()
	if err != nil {
		return err
	}
	if *dst, err = unquote(tok, simple); err != nil {
		return d.errorf("invalid string %s: %v", tok, err)
	}
	return nil
}

// intValue decodes an integer of the given width into *dst; null leaves
// it as it is. As in encoding/json, the token must be a JSON number that
// strconv.ParseInt takes: no fraction, no exponent, in range.
func (d *windowDecoder) intValue(dst *int64, bits int) error {
	if isNull, err := d.null(); isNull {
		return err
	}
	tok, _, _, _, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return d.errorf("cannot decode number %s into an integer field", tok)
	}
	*dst = n
	return nil
}

// float decodes a JSON number as a float64 from what number gathered, so
// its bytes are read once. Integers below 2^53 and powers of ten up to
// 1e22 are floats exactly, so one multiply or divide rounds once and is
// the answer (Clinger); otherwise eiselLemire answers or declines. What
// neither settles — a twentieth digit, an exponent off the table, a
// half-way case, a subnormal, an overflow — goes to strconv.ParseFloat,
// which stays the definition: every token gets strconv's bits and error.
func (d *windowDecoder) float() (float64, error) {
	tok, mant, e10, ok, err := d.number()
	if err != nil {
		return 0, err
	}
	var f float64
	switch {
	case !ok:
	case mant>>53 == 0 && 0 <= e10 && e10 <= 22:
		f = float64(mant) * pow10[e10]
	case mant>>53 == 0 && -22 <= e10 && e10 < 0:
		f = float64(mant) / pow10[-e10]
	default:
		f, ok = eiselLemire(mant, e10)
	}
	if !ok {
		return d.slowFloat(tok)
	}
	if tok[0] == '-' {
		f = -f
	}
	return f, nil
}

// slowNumbers counts the numbers float handed to strconv, process-wide as
// the decoders are plain functions that handlers and replay workers both
// call: /metrics reports it, the 197-server documents are held to zero.
var slowNumbers atomic.Int64

// slowFloat converts a number token float could not, and counts it.
func (d *windowDecoder) slowFloat(tok []byte) (float64, error) {
	d.slow++
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errorf("cannot decode number %s into a float64", tok)
	}
	return v, nil
}

// number scans the JSON number token at the read offset. strconv takes
// spellings JSON does not (+1, .5, 0x10, 1_000, Inf), so the grammar is
// checked here and strconv only converts. The same pass gathers what float
// converts without reading the token again: mant, the digits from the
// first nonzero one on, and the decimal exponent e10 that goes with them.
// exact says the token is ±mant × 10^e10: at most 19 significant digits,
// which a uint64 holds, and a written exponent under 10000.
func (d *windowDecoder) number() (tok []byte, mant uint64, e10 int, exact bool, err error) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	nd, e, start := 0, 0, i // significant digits, counted past 19; the written exponent
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i]-'0' <= 9; i++ { // from a nonzero digit: all count
			if nd++; nd <= 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
		}
	}
	ok := i > start
	if ok && i < len(b) && b[i] == '.' {
		i++
		for start = i; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
			}
			if mant != 0 {
				nd++
			}
		}
		e10, ok = start-i, i > start
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		for start = i; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // stuck past it: off every table, short of overflow
				e = e*10 + int(b[i]-'0')
			}
		}
		if ok = i > start; eneg {
			e = -e
		}
	}
	tok, d.i = b[d.i:i], i
	if !ok {
		return nil, 0, 0, false, d.unexpected("in numeric literal")
	}
	return tok, mant, e10 + e, nd <= 19 && -10000 < e && e < 10000, nil
}

// series decodes a sample array over dst the way encoding/json decodes
// an array into a slice it already holds: null clears it, an empty array
// makes it empty, and otherwise element i is stored at index i — a null
// element leaving whatever the backing array holds there — and the slice
// is cut to the element count. dst is nil unless the key repeats.
func (d *windowDecoder) series(dst []float64) ([]float64, error) {
	if isNull, err := d.null(); isNull {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.unexpected("looking for a sample array")
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return []float64{}, nil
	}
	if dst == nil {
		// n samples take at least 2n-1 bytes, so a hint the array cannot
		// fill (a long series followed by many short ones) is cut down.
		end := bytes.IndexByte(d.b[d.i:], ']')
		dst = make([]float64, 0, min(d.seriesLen, end/2+1))
	}
	n := 0
	for more := true; more; n++ {
		if n == cap(dst) {
			dst = append(dst[:n], 0)
		} else if n >= len(dst) {
			dst = dst[:n+1]
		}
		isNull, err := d.null()
		if !isNull {
			dst[n], err = d.float()
		}
		if err != nil {
			return nil, err
		}
		// A comma hard against the next number, as encoders write: all of next.
		if i := d.i; i+1 < len(d.b) && d.b[i] == ',' && (d.b[i+1]-'0' <= 9 || d.b[i+1] == '-') {
			d.i++
			continue
		}
		if more, err = d.next(']'); err != nil {
			return nil, err
		}
	}
	d.seriesLen = n
	return dst[:n], nil
}

// skipValue consumes the value of a field the schema does not know, with
// depth objects and arrays around it, once encoding/json has found those
// bytes valid.
func (d *windowDecoder) skipValue(depth int) error {
	start := d.i
	if err := d.extent(depth); err != nil {
		return err
	}
	if !json.Valid(d.b[start:d.i]) {
		d.i = start
		return d.unexpected("in the value of an unknown field")
	}
	return nil
}

// extent consumes the value at the read offset, with depth objects and
// arrays around it, without validating it: its end is found by matching
// brackets outside strings. A valid value ends where its brackets match,
// so when they are valid this is the extent encoding/json would have
// found, and when they are not it would have rejected the document too.
// Whoever calls this hands the bytes to encoding/json.
func (d *windowDecoder) extent(depth int) error {
	switch d.peek() {
	case '{', '[':
		open := 0
	scan:
		for ; d.i < len(d.b); d.i++ {
			switch d.b[d.i] {
			case '"':
				if _, _, err := d.str(); err != nil {
					return err
				}
				d.i-- // the loop steps past the closing quote
			case '{', '[':
				if open++; depth+open > maxNesting {
					return d.errorf("exceeded max depth")
				}
			case '}', ']':
				if open--; open == 0 {
					d.i++
					break scan
				}
			}
		}
		if open != 0 {
			return d.truncated()
		}
	case '"':
		if _, _, err := d.str(); err != nil {
			return err
		}
	default:
	scalar:
		for ; d.i < len(d.b); d.i++ {
			switch d.b[d.i] {
			case ',', ']', '}', ' ', '\t', '\r', '\n':
				break scalar
			}
		}
	}
	return nil
}
