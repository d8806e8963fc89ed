package server

// The window path's wire decoder. A fleet's observation windows are the
// control plane's bulk traffic — a 197-server window is 2.2 MB of JSON
// holding 113k floats — and reflection-driven encoding/json spent more
// on decoding one than the journal spent making it durable. This file is
// a decoder for exactly one schema, []WorkloadWire inside a WindowRequest
// (live) or a WindowRecord (replay): a byte scanner that hands number
// tokens to strconv and everything unusual to encoding/json.
//
// Contract: decodeWindow accepts exactly the bodies
// json.Unmarshal(body, &WindowRequest{}) accepts, and yields the same
// workloads. That includes encoding/json's corners — keys match
// case-insensitively under Unicode simple folding, null leaves a scalar
// untouched and clears a slice or pointer, a repeated key decodes over
// what the earlier one left (array elements in place), integers reject
// fractions and exponents, floats out of range are errors, and unknown
// fields are skipped only once their values are known to be valid JSON.
// FuzzDecodeWindow holds the two decoders together.
//
// Three deliberate differences from the json.Decoder the handler used
// to run, all so that the bytes the journal keeps are the whole story.
// Anything but whitespace after the top-level value is an error rather
// than silently ignored. A repeated top-level "workloads" key replaces
// the earlier value outright instead of decoding over its elements, so
// the span decodeWindow returns, decoded on its own, is the window that
// was applied. And nesting is counted as the journal record nests the
// window, one level deeper than the request does, so a body encoding/json
// would take at its 10000-level limit is refused rather than journaled
// as a record encoding/json could not read back.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
)

// maxNesting is encoding/json's nesting limit; deeper documents are
// rejected there, so they are rejected here.
const maxNesting = 10000

// Nesting depths of the schema's fixed levels inside a journal record
// ({"window":{"fleet":…,"workloads":[{…}]}}), for the maxNesting count of
// an unknown field's value below them. A request's top level counts as
// the record's window object.
const (
	depthWindow   = 2 // the object holding the workloads key
	depthWorkload = 4 // a workload object inside the workloads array
)

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

// requestKeys is WindowRequest's one key.
var requestKeys = [...]string{"workloads"}

// windowDecoder is the scanner state: the document and the read offset.
type windowDecoder struct {
	b []byte
	i int
	// seriesLen is the length of the last series decoded. Every series of
	// a window has the same length, so it sizes the next one exactly.
	seriesLen int
}

// decodeWindow decodes a POST /v1/fleets/{id}/windows body. span is the
// byte range of the "workloads" value it validated (nil when the body
// has none): valid JSON that decodes, on its own, to workloads.
func decodeWindow(body []byte) (workloads []WorkloadWire, span []byte, err error) {
	d := windowDecoder{b: body}
	d.space()
	switch d.peek() {
	case 'n':
		_, err = d.null()
	case '{':
		workloads, span, err = d.request()
	default:
		err = d.unexpected("looking for a window request object")
	}
	if err != nil {
		return nil, nil, err
	}
	d.space()
	if d.i < len(d.b) {
		return nil, nil, d.unexpected("after top-level value")
	}
	return workloads, span, nil
}

// windowRecordHead is how every window record's payload opens, whether
// json.Marshal or windowPayload wrote it.
const windowRecordHead = `{"window":{"fleet":`

// decodeWindowRecord decodes a journaled window record through the same
// decoder that read the window live. ok is false for anything that is
// not exactly {"window":{"fleet":…,"workloads":…}} — other record
// kinds, sibling keys, malformed content — which the caller hands to
// encoding/json.
func decodeWindowRecord(payload []byte) (rec *WindowRecord, ok bool) {
	if !bytes.HasPrefix(payload, []byte(windowRecordHead)) {
		return nil, false
	}
	d := windowDecoder{b: payload, i: len(windowRecordHead)}
	rec = &WindowRecord{}
	if d.peek() != '"' || d.stringValue(&rec.Fleet) != nil || !d.consume(`,"workloads":`) {
		return nil, false
	}
	var err error
	if rec.Workloads, err = d.workloadsValue(); err != nil || !d.consume(`}}`) || d.i != len(d.b) {
		return nil, false
	}
	return rec, true
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

// request decodes the WindowRequest object at the read offset.
func (d *windowDecoder) request() (workloads []WorkloadWire, span []byte, err error) {
	d.i++ // '{'
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil, nil, nil
	}
	for more := true; more; {
		field, err := d.key(requestKeys[:])
		if err != nil {
			return nil, nil, err
		}
		if field < 0 {
			err = d.skipValue(depthWindow)
		} else {
			start := d.i
			workloads, err = d.workloadsValue()
			span = d.b[start:d.i:d.i]
		}
		if err != nil {
			return nil, nil, err
		}
		if more, err = d.next('}'); err != nil {
			return nil, nil, err
		}
	}
	return workloads, span, nil
}

// workloadsValue decodes a "workloads" value — null or an array of
// workload objects and nulls — into a fresh slice.
func (d *windowDecoder) workloadsValue() ([]WorkloadWire, error) {
	if isNull, err := d.null(); isNull {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.unexpected("looking for the workloads array")
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return []WorkloadWire{}, nil
	}
	var out []WorkloadWire
	for more := true; more; {
		out = append(out, WorkloadWire{})
		isNull, err := d.null()
		if !isNull {
			err = d.workload(&out[len(out)-1])
		}
		if err != nil {
			return nil, err
		}
		if more, err = d.next(']'); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// workload decodes the workload object at the read offset into w.
func (d *windowDecoder) workload(w *WorkloadWire) error {
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
			err = d.skipValue(depthWorkload)
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
	tok, err := d.number()
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

// float decodes a JSON number as a float64.
func (d *windowDecoder) float() (float64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errorf("cannot decode number %s into a float64", tok)
	}
	return v, nil
}

// number scans the JSON number token at the read offset. strconv takes
// spellings JSON does not (+1, .5, 0x10, 1_000, Inf), so the grammar is
// checked here and strconv only converts.
func (d *windowDecoder) number() ([]byte, error) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	var ok bool
	if i < len(b) && b[i] == '0' {
		i, ok = i+1, true
	} else {
		i, ok = digits(b, i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(b, i+1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
	}
	tok := b[d.i:i]
	d.i = i
	if !ok {
		return nil, d.unexpected("in numeric literal")
	}
	return tok, nil
}

// digits skips the run of decimal digits at b[i:]; ok reports that
// there was at least one.
func digits(b []byte, i int) (end int, ok bool) {
	end = i
	for end < len(b) && '0' <= b[end] && b[end] <= '9' {
		end++
	}
	return end, end > i
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
		if more, err = d.next(']'); err != nil {
			return nil, err
		}
	}
	d.seriesLen = n
	return dst[:n], nil
}

// skipValue consumes the value of a field the schema does not know,
// nested depth levels deep. Its extent is found by matching brackets
// outside strings; encoding/json then validates exactly those bytes. A
// valid value ends where its brackets match, so when they are valid this
// is the extent encoding/json would have found, and when they are not it
// would have rejected the document too.
func (d *windowDecoder) skipValue(depth int) error {
	start := d.i
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
	if !json.Valid(d.b[start:d.i]) {
		d.i = start
		return d.unexpected("in the value of an unknown field")
	}
	return nil
}
