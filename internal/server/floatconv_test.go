package server

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// twoPassNumber is the number scan float and intValue shared before the
// scan gathered digits as it went, kept here as the reference: it checks
// the JSON number grammar at b[i:] and returns the token's end.
func twoPassNumber(b []byte, i int) (end int, ok bool) {
	digits := func(i int) (int, bool) {
		end := i
		for end < len(b) && '0' <= b[end] && b[end] <= '9' {
			end++
		}
		return end, end > i
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i, ok = i+1, true
	} else {
		i, ok = digits(i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(i + 1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(i)
	}
	return i, ok
}

// twoPassFloat is what float was before it converted what the scan
// gathered, and what it must still compute: twoPassNumber checks the
// grammar and finds the token's end, strconv.ParseFloat converts the token.
func twoPassFloat(b []byte) (v float64, end int, err error) {
	d := windowDecoder{b: b}
	end, ok := twoPassNumber(b, 0)
	tok := b[:end]
	d.i = end
	if !ok {
		return 0, end, d.unexpected("in numeric literal")
	}
	if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
		return 0, end, d.errorf("cannot decode number %s into a float64", tok)
	}
	return v, end, nil
}

// checkFloat holds float to twoPassFloat on one input: the same error (or
// none), the same bytes consumed, the same bits.
func checkFloat(t *testing.T, in []byte) {
	t.Helper()
	want, wantEnd, wantErr := twoPassFloat(in)
	d := windowDecoder{b: in}
	got, err := d.float()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("float(%q): error %v, want %v", in, err, wantErr)
	}
	if d.i != wantEnd {
		t.Fatalf("float(%q): consumed %d bytes, want %d", in, d.i, wantEnd)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("float(%q) = %x (%g), want %x (%g)", in, math.Float64bits(got), got, math.Float64bits(want), want)
	}
	// intValue converts the token itself: it is the bytes up to that end.
	d = windowDecoder{b: in}
	if tok, _, _, _, err := d.number(); err == nil && string(tok) != string(in[:wantEnd]) {
		t.Fatalf("number(%q): token %q, want %q", in, tok, in[:wantEnd])
	}
}

// hardNumbers are the spellings where a decimal-to-binary conversion or a
// JSON number grammar goes wrong first.
var hardNumbers = []string{
	// Zeros, signs, and what JSON refuses but strconv would take.
	"0", "-0", "0.0", "-0.0e5", "0e400", "0e-400", "0." + strings.Repeat("0", 25), "-0." + strings.Repeat("0", 400) + "e500",
	"1.", ".5", "+1", "01", "-01", "00", "1e", "1e+", "1e-", "1E+x", "-", "-.5", "- 1", "", "e5", "1.e5", "1.5.5", "1e5e5",
	"0x10", "1_000", "Inf", "-Inf", "NaN", "nan", "infinity", "1,2", "12]", "1.5 ", "2e3}",
	// The edge of the exact path: 2^53, the powers of ten a float holds.
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"-9007199254740993", "9007199254740993e-1", "9007199254740991e22", "9007199254740991e23", "9007199254740991e-22", "9007199254740991e-23",
	"1e22", "1e23", "1e-22", "1e-23", "8.5e22", "123456789e15", "1e15", "1.0e37",
	// 17, 19 and 20 digits; zeros that are and are not significant.
	"0.12345678901234567", "12345678901234567", "1234567890123456789", "0.1234567890123456789", "9999999999999999999", "18446744073709551615",
	"18446744073709551616", "12345678901234567890", "0.12345678901234567890", "0.00000000000000000001234567890123456789", "0.000000000000000000012345678901234567891",
	"10000000000000000000", "1000000000000000000", "1.000000000000000000", "1.0000000000000000000", "100000000000000000000000", "1" + strings.Repeat("0", 400),
	// Half-way cases and their neighbours: exactly between two floats, one
	// digit to either side, far too many digits to either side.
	"9007199254740993", "9007199254740993.0000000000000000000000001", "9007199254740992.9999999999999999999999999",
	"1.00000000000000011102230246251565404236316680908203125", "1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
	"0.500000000000000166533453693773481063544750213623046875", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "2.47032822920623272e-324",
	"6.929001713869936e236", "3.5844466002796428e298", "1.7976931348623158e308", "8.988465674311580536e307", "4503599627370496.5", "4503599627370497.5", "1448997445238699",
	// Subnormals, the smallest and largest floats, overflow and underflow.
	"4.9e-324", "4.9406564584124654e-324", "2.2250738585072011e-308", "2.2250738585072014e-308", "2.225073858507201e-308", "1e-307", "1e-308", "1e-320", "1e-323", "1e-324", "1e-400",
	"1e308", "1.7976931348623157e308", "1.7976931348623159e308", "1e309", "-1e309", "1e400", "123e306", "123456789012345678e291", "1e347", "1e348", "1e-348", "1e-349", "12e-349",
	// Exponents that overflow an int, or the accumulator, or cancel.
	"1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999", "1e9999", "1e10000", "1e-10000", "1e+00000000000000000005", "1e-00000000000000000005",
	"0." + strings.Repeat("0", 10000) + "1e10001", "0." + strings.Repeat("0", 9999) + "1e9999", "1" + strings.Repeat("0", 10000) + "e-10000",
}

func TestSeriesNumberHardCases(t *testing.T) {
	for _, s := range hardNumbers {
		checkFloat(t, []byte(s))
		checkFloat(t, []byte("-"+s))
		checkFloat(t, []byte(s+",1]"))
	}
	// What the table stands for, stated once without the reference: JSON's
	// refusals are errors at the byte number stops at, strconv's range
	// error is an error, an underflow is zero.
	for _, tc := range []struct {
		in   string
		want float64
		end  int
		ok   bool
	}{
		{"-0", math.Copysign(0, -1), 2, true}, {"1e-400", 0, 6, true}, {"4.9e-324", 5e-324, 8, true},
		{"9007199254740993", 9007199254740992, 16, true}, {"1e23", 1e23, 4, true}, {"01", 0, 1, true},
		{"1e309", 0, 5, false}, {"1.", 0, 2, false}, {".5", 0, 0, false}, {"+1", 0, 0, false}, {"1e", 0, 2, false}, {"1e+", 0, 3, false},
	} {
		d := windowDecoder{b: []byte(tc.in)}
		got, err := d.float()
		if (err == nil) != tc.ok || d.i != tc.end || tc.ok && math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("float(%q) = %g, %v, %d bytes consumed; want %g, ok %v, %d", tc.in, got, err, d.i, tc.want, tc.ok, tc.end)
		}
	}
}

// TestSeriesNumberRandomized spells random floats the ways a collector
// might and holds float to strconv on each: random bit patterns (every
// magnitude, subnormals included) as %g, %e and %f, shortest and at fixed
// precisions that cut or pad the digits; the shapes the wire carries —
// uniform in [0,1), scaled to 1e10 — and log-uniform magnitudes.
func TestSeriesNumberRandomized(t *testing.T) {
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(24))
	formats := []byte{'g', 'e', 'f'}
	precisions := []int{-1, -1, 17, 19, 20, 15, 6, 30}
	buf := make([]byte, 0, 512)
	for i := 0; i < n; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1:
			v = rng.Float64()
		case 2:
			v = rng.Float64() * 1e10
		case 3:
			v = math.Pow(10, rng.Float64()*700-350)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		buf = strconv.AppendFloat(buf[:0], v, formats[rng.Intn(len(formats))], precisions[rng.Intn(len(precisions))], 64)
		if rng.Intn(8) == 0 {
			// One digit nudged: no longer any float's own spelling.
			if j := rng.Intn(len(buf)); '0' <= buf[j] && buf[j] <= '8' && j > 0 && buf[j-1] != 'e' && buf[j-1] != '+' && buf[j-1] != '-' {
				buf[j]++
			}
		}
		checkFloat(t, buf)
	}
}

// FuzzSeriesNumber is the differential fuzz between float and the two
// passes it replaced, on arbitrary bytes (see checkFloat).
func FuzzSeriesNumber(f *testing.F) {
	for _, s := range hardNumbers {
		// The kilobyte spellings stay in the table: as seeds they have the
		// engine minimising them for most of a ten-second smoke.
		if len(s) <= 64 {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkFloat(t, in)
	})
}

// TestWide10 pins the computed table of 128-bit powers of ten against
// rows of the published one (strconv's detailedPowersOfTen, from the
// Eisel–Lemire reference implementations), ends and middle, and holds
// every row to its normal form.
func TestWide10(t *testing.T) {
	for e, want := range map[int][2]uint64{
		-348: {0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		-343: {0x7432EE873880FC33, 0xBF29DCABA82FDEAE},
		-27:  {0x775EA264CF55347D, 0x9E74D1B791E07E48},
		-2:   {0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A},
		-1:   {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		0:    {0x0000000000000000, 0x8000000000000000},
		27:   {0x0000000000000000, 0xCECB8F27F4200F3A},
		28:   {0x4000000000000000, 0x813F3978F8940984},
		347:  {0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := wide10[e-minPow10]; got != want {
			t.Errorf("10^%d = {%#016X, %#016X}, want {%#016X, %#016X}", e, got[0], got[1], want[0], want[1])
		}
	}
	for i, row := range wide10 {
		if row[1]>>63 == 0 {
			t.Errorf("10^%d: high bit clear in %#016X", i+minPow10, row[1])
		}
	}
}

// TestNoSlowNumbers197 is the traffic check behind float's fast paths: the
// numbers a 197-server window, registration, window record and snapshot
// carry all convert without strconv.
func TestNoSlowNumbers197(t *testing.T) {
	before := slowNumbers.Load()
	if _, _, err := decodeWindow(window197(t)); err != nil {
		t.Fatal(err)
	}
	checkDecodeRegister(t, register197(t))
	checkDecodeRecord(t, mustJSON(&RecordWire{Window: &WindowRecord{Fleet: "all-197", Workloads: all197(1.003)}}))
	checkDecodeSnapshot(t, snapshot197(t))
	if n := slowNumbers.Load() - before; n != 0 {
		t.Errorf("%d numbers of the 197-server documents fell back to strconv, want 0", n)
	}
	// The counter does count: a twenty-digit sample is strconv's.
	if _, _, err := decodeWindow([]byte(`{"workloads":[{"cpu":[0.12345678901234567891]}]}`)); err != nil {
		t.Fatal(err)
	}
	if n := slowNumbers.Load() - before; n != 1 {
		t.Errorf("a twenty-digit sample moved the slow counter by %d, want 1", n)
	}
}

// seriesTokens returns the sample tokens of a 197-server window, split by
// the path float converts them on: exact is Clinger's (mantissa below
// 2^53, |exponent| ≤ 22), wide is Eisel–Lemire's.
func seriesTokens(tb testing.TB) (exact, wide [][]byte) {
	tb.Helper()
	wire, _, err := decodeWindow(window197(tb))
	if err != nil {
		tb.Fatal(err)
	}
	for _, w := range wire {
		for _, s := range [][]float64{w.CPU, w.RAMBytes, w.WSBytes, w.UpdateRate, w.DiskWriteBps} {
			for _, v := range s {
				// As encoding/json spells a float64: shortest, so the digits
				// without the point are the mantissa.
				tok := mustJSON(v)
				mant, frac, _ := strings.Cut(string(tok), ".")
				if strings.ContainsAny(string(tok), "eE") {
					tb.Fatalf("window sample %s is spelled with an exponent", tok)
				}
				m, err := strconv.ParseUint(mant+frac, 10, 64)
				if err != nil {
					tb.Fatal(err)
				}
				if m>>53 == 0 && len(frac) <= 22 {
					exact = append(exact, tok)
				} else {
					wide = append(wide, tok)
				}
			}
		}
	}
	return exact, wide
}

var sinkFloat float64

// BenchmarkSeriesNumber is the conversion alone, ns per float, over the
// samples of a 197-server window: float against the number + strconv pair
// it replaced, on the tokens each of its two fast paths takes.
func BenchmarkSeriesNumber(b *testing.B) {
	exact, wide := seriesTokens(b)
	for _, set := range []struct {
		name string
		toks [][]byte
	}{{"exact", exact}, {"wide", wide}} {
		if len(set.toks) == 0 {
			b.Fatalf("no %s tokens in the window", set.name)
		}
		run := func(name string, conv func([]byte) (float64, error)) {
			b.Run(set.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, tok := range set.toks {
						v, err := conv(tok)
						if err != nil {
							b.Fatal(err)
						}
						sinkFloat = v
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(set.toks)), "ns/float")
				b.ReportMetric(float64(len(set.toks)), "floats")
			})
		}
		run("onepass", func(tok []byte) (float64, error) {
			d := windowDecoder{b: tok}
			return d.float()
		})
		run("strconv", func(tok []byte) (float64, error) {
			v, _, err := twoPassFloat(tok)
			return v, err
		})
	}
}
