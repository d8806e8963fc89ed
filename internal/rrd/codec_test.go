package rrd

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"
)

// Offsets into an encoded database with one archive (see codec.go's layout).
const (
	offStep     = 16
	offCF       = 36
	offSteps    = 40
	offRows     = 44
	offWritten  = 52
	offAccSeen  = 60
	offAccCount = 64
)

// encoded returns db's encoding.
func encoded(tb testing.TB, db *DB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// patched returns a copy of b with v written little-endian at off.
func patched(b []byte, off int, v any) []byte {
	out := bytes.Clone(b)
	var field bytes.Buffer
	_ = binary.Write(&field, binary.LittleEndian, v)
	copy(out[off:], field.Bytes())
	return out
}

// TestReadRefusesWhatNewRefuses: a file Read used to load — and then panic
// on (a negative row count made Fetch allocate a negative length) or
// silently stop consolidating (a row in progress already complete) — is an
// error, as is every archive spec New refuses and a step that is not
// positive.
func TestReadRefusesWhatNewRefuses(t *testing.T) {
	db := mustNew(t, ArchiveSpec{MaxCF, 3, 4})
	db.UpdateAll([]float64{1, 2, 3, 4})
	good := encoded(t, db)
	if _, err := Read(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		doc  []byte
	}{
		{"zero step", patched(good, offStep, int64(0))},
		{"negative step", patched(good, offStep, int64(-time.Second))},
		{"unknown CF", patched(good, offCF, uint32(7))},
		{"zero steps per row", patched(good, offSteps, uint32(0))},
		{"empty ring", patched(good, offRows, uint32(0))},
		{"negative row count", patched(good, offWritten, int64(-5))},
		{"row in progress complete", patched(good, offAccSeen, uint32(3))},
		{"row in progress past complete", patched(good, offAccSeen, uint32(9))},
		{"more counted than seen", patched(patched(good, offAccSeen, uint32(1)), offAccCount, uint32(2))},
	} {
		if _, err := Read(bytes.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: loaded", tc.name)
		}
	}
}

// TestReadGrowsRingAsRead: a header claiming the largest ring Read takes,
// 2^24 rows, with no ring bytes behind it, fails having allocated next to
// nothing — not the 128 MB the claim is worth.
func TestReadGrowsRingAsRead(t *testing.T) {
	db := mustNew(t, ArchiveSpec{Average, 1, 1})
	header := patched(encoded(t, db), offRows, uint32(1<<24))
	header = header[:len(header)-8] // the one ring row
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(bytes.NewReader(header)); err == nil {
		t.Fatal("a ring with no rows behind it loaded")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("reading a %d-byte header allocated %d bytes", len(header), n)
	}
}

// FuzzRead: arbitrary bytes never panic Read, and what it loads is
// encoded back exactly — WriteTo gives the bytes Read consumed, which Read
// loads again — and goes on like the database it was written from: the
// same archives after the same updates.
func FuzzRead(f *testing.F) {
	db, err := New(t0, time.Minute, ArchiveSpec{Average, 1, 8}, ArchiveSpec{MaxCF, 4, 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encoded(f, db))
	db.UpdateAll([]float64{1, 2, math.NaN(), 4, 5, 6, 7, 8, 9, 10, 11})
	good := encoded(f, db)
	f.Add(good)
	f.Add(patched(good, offWritten, int64(-5)))
	f.Add(patched(good, offAccSeen, uint32(4)))
	f.Add(patched(good, offRows, uint32(1<<24)))
	f.Add(good[:60])
	f.Fuzz(func(t *testing.T, b []byte) {
		db, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		out := encoded(t, db)
		if !bytes.HasPrefix(b, out) {
			t.Fatalf("WriteTo of what Read loaded is not the bytes it read:\n%x\n%x", out, b)
		}
		again, err := Read(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("Read refuses WriteTo's bytes: %v", err)
		}
		for round, vs := range [][]float64{nil, {1, math.NaN(), -3}, {0.5, 7, 7, 7, 2}} {
			db.UpdateAll(vs)
			again.UpdateAll(vs)
			for idx := range db.Archives() {
				a, err := db.Fetch(idx)
				if err != nil {
					t.Fatal(err)
				}
				c, err := again.Fetch(idx)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Start.Equal(c.Start) || a.Step != c.Step || len(a.Values) != len(c.Values) {
					t.Fatalf("round %d archive %d: %v %v %d rows, reloaded %v %v %d", round, idx, a.Start, a.Step, len(a.Values), c.Start, c.Step, len(c.Values))
				}
				for i := range a.Values {
					if math.Float64bits(a.Values[i]) != math.Float64bits(c.Values[i]) {
						t.Fatalf("round %d archive %d row %d: %v, reloaded %v", round, idx, i, a.Values[i], c.Values[i])
					}
				}
			}
		}
	})
}
