package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// open opens dir with the given options and fails the test on error.
func open(t *testing.T, dir string, opt Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// mustAppend appends a record of parts and fails the test on error.
func mustAppend(t *testing.T, l *Log, parts ...[]byte) uint64 {
	t.Helper()
	seq, err := l.Append(parts...)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return seq
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := open(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.TornTail {
		t.Fatalf("fresh dir recovered %+v, want empty", rec)
	}
	payloads := [][]byte{[]byte("one"), []byte("two"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, p := range payloads {
		if seq := mustAppend(t, l, p); seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := open(t, dir, Options{})
	defer l2.Close()
	if rec2.TornTail {
		t.Fatal("clean close recovered a torn tail")
	}
	if len(rec2.Records) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(payloads))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d = seq %d payload %d bytes, want seq %d payload %d bytes",
				i, r.Seq, len(r.Payload), i+1, len(payloads[i]))
		}
	}
	// Appends continue from the recovered seq.
	if seq := mustAppend(t, l2, []byte("four")); seq != 4 {
		t.Fatalf("post-recovery append got seq %d, want 4", seq)
	}
}

// TestPropertyReplayEqualsModel drives random op sequences (append,
// snapshot, reopen) against both the journal and an in-memory model; after
// every reopen the recovered state must equal the model exactly.
func TestPropertyReplayEqualsModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			l, _ := open(t, dir, Options{Sync: SyncNone})

			// The model: the snapshot payload (with covered seq) plus every
			// appended record after it.
			var modelSnap []byte
			var modelSnapSeq uint64
			var modelRecords []Record

			check := func(rec *Recovered) {
				t.Helper()
				if rec.TornTail {
					t.Fatal("clean sequence recovered a torn tail")
				}
				if !bytes.Equal(rec.Snapshot, modelSnap) || rec.SnapshotSeq != modelSnapSeq {
					t.Fatalf("snapshot (%d bytes, seq %d) != model (%d bytes, seq %d)",
						len(rec.Snapshot), rec.SnapshotSeq, len(modelSnap), modelSnapSeq)
				}
				if len(rec.Records) != len(modelRecords) {
					t.Fatalf("recovered %d records, model has %d", len(rec.Records), len(modelRecords))
				}
				for i := range rec.Records {
					if rec.Records[i].Seq != modelRecords[i].Seq ||
						!bytes.Equal(rec.Records[i].Payload, modelRecords[i].Payload) {
						t.Fatalf("record %d mismatch", i)
					}
				}
			}

			for op := 0; op < 200; op++ {
				switch r := rng.Float64(); {
				case r < 0.70: // append a random payload
					payload := make([]byte, 1+rng.Intn(512))
					rng.Read(payload)
					seq, err := l.Append(payload)
					if err != nil {
						t.Fatalf("append: %v", err)
					}
					modelRecords = append(modelRecords, Record{Seq: seq, Payload: append([]byte(nil), payload...)})
				case r < 0.85: // snapshot compacts the model
					state := make([]byte, 1+rng.Intn(256))
					rng.Read(state)
					if err := l.Snapshot(state); err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					modelSnap = append([]byte(nil), state...)
					modelSnapSeq = l.Seq()
					modelRecords = nil
				default: // reopen and compare against the model
					if err := l.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					var rec *Recovered
					l, rec = open(t, dir, Options{Sync: SyncNone})
					check(rec)
				}
			}
			l.Close()
		})
	}
}

// TestTornTail cuts the journal file at every interesting byte boundary of
// its final record; recovery must keep everything before the cut, report
// the torn tail, truncate the file, and accept new appends.
func TestTornTail(t *testing.T) {
	// Build a reference journal: 3 records with known payloads.
	build := func(t *testing.T) (string, []int64) {
		dir := t.TempDir()
		l, _ := open(t, dir, Options{})
		offsets := []int64{0}
		for i := 0; i < 3; i++ {
			mustAppend(t, l, bytes.Repeat([]byte{byte('a' + i)}, 100))
			offsets = append(offsets, l.Stats().SizeBytes)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, offsets
	}

	cases := []struct {
		name string
		// cut maps the final record's [start, end) to the cut position.
		cut func(start, end int64) int64
		// wantRecords after recovery.
		wantRecords int
	}{
		{"mid-header", func(s, e int64) int64 { return s + frameHeaderSize/2 }, 2},
		{"after-header", func(s, e int64) int64 { return s + frameHeaderSize }, 2},
		{"mid-payload", func(s, e int64) int64 { return s + (e-s)/2 }, 2},
		{"one-byte-short", func(s, e int64) int64 { return e - 1 }, 2},
		{"record-boundary-clean", func(s, e int64) int64 { return s }, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, offsets := build(t)
			start, end := offsets[2], offsets[3]
			cut := tc.cut(start, end)
			if err := os.Truncate(filepath.Join(dir, journalFile), cut); err != nil {
				t.Fatal(err)
			}
			l, rec := open(t, dir, Options{})
			defer l.Close()
			if len(rec.Records) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(rec.Records), tc.wantRecords)
			}
			wantTorn := cut != start // a clean cut at a boundary is not torn
			if rec.TornTail != wantTorn {
				t.Fatalf("TornTail = %v, want %v (cut at %d)", rec.TornTail, wantTorn, cut)
			}
			if wantTorn && rec.TornOffset != start {
				t.Fatalf("TornOffset = %d, want %d", rec.TornOffset, start)
			}
			if st := l.Stats(); st.SizeBytes != start {
				t.Fatalf("file not truncated to the good boundary: size %d, want %d", st.SizeBytes, start)
			}
			// The log stays writable after tail truncation, and the new
			// record survives a further reopen.
			mustAppend(t, l, []byte("recovered"))
			l.Close()
			_, rec2 := open(t, dir, Options{})
			if n := len(rec2.Records); n != tc.wantRecords+1 {
				t.Fatalf("after post-recovery append, reopened %d records, want %d", n, tc.wantRecords+1)
			}
		})
	}
}

// TestBitFlips flips single bits across the journal; recovery must
// truncate at the first record whose checksum breaks.
func TestBitFlips(t *testing.T) {
	cases := []struct {
		name string
		// record to corrupt (0-based of 3) and byte offset within it.
		record  int
		offset  int64
		wantRec int
	}{
		{"length-field-of-first", 0, 0, 0},
		{"crc-field-of-first", 0, 5, 0},
		{"seq-field-of-second", 1, 9, 1},
		{"payload-of-second", 1, frameHeaderSize + 10, 1},
		{"payload-of-last", 2, frameHeaderSize + 50, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := open(t, dir, Options{})
			var offsets []int64
			offsets = append(offsets, 0)
			for i := 0; i < 3; i++ {
				mustAppend(t, l, bytes.Repeat([]byte{byte('a' + i)}, 100))
				offsets = append(offsets, l.Stats().SizeBytes)
			}
			l.Close()

			path := filepath.Join(dir, journalFile)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[offsets[tc.record]+tc.offset] ^= 0x10
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, rec := open(t, dir, Options{})
			defer l2.Close()
			if len(rec.Records) != tc.wantRec {
				t.Fatalf("recovered %d records, want %d (flip in record %d)",
					len(rec.Records), tc.wantRec, tc.record)
			}
			if !rec.TornTail {
				t.Fatal("bit flip did not report a torn tail")
			}
			if rec.TornOffset != offsets[tc.record] {
				t.Fatalf("truncated at %d, want record boundary %d", rec.TornOffset, offsets[tc.record])
			}
		})
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{})
	mustAppend(t, l, []byte("a"))
	mustAppend(t, l, []byte("b"))
	if err := l.Snapshot([]byte("state@2")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if st := l.Stats(); st.SizeBytes != 0 || st.SnapshotSeq != 2 {
		t.Fatalf("post-snapshot stats %+v, want rotated journal covering seq 2", st)
	}
	mustAppend(t, l, []byte("c"))
	l.Close()

	l2, rec := open(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "state@2" || rec.SnapshotSeq != 2 {
		t.Fatalf("recovered snapshot %q seq %d, want state@2 seq 2", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 3 || string(rec.Records[0].Payload) != "c" {
		t.Fatalf("recovered records %+v, want only seq 3 %q", rec.Records, "c")
	}
}

// TestSnapshotCrashBetweenRenameAndTruncate: the snapshot is active but
// the journal still holds the compacted prefix — replay must skip it by
// sequence number.
func TestSnapshotCrashBetweenRenameAndTruncate(t *testing.T) {
	dir := t.TempDir()
	fi := &FaultInjector{}
	l, _ := open(t, dir, Options{Fault: fi})
	mustAppend(t, l, []byte("a"))
	mustAppend(t, l, []byte("b"))
	fi.Crash(PointSnapshotTruncate, 1)
	if err := l.Snapshot([]byte("state@2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Snapshot with truncate fault = %v, want injected", err)
	}
	fi.Kill()
	l.Close()

	l2, rec := open(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "state@2" || rec.SnapshotSeq != 2 {
		t.Fatalf("snapshot %q seq %d, want state@2 seq 2", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("compacted prefix not skipped: recovered %d records", len(rec.Records))
	}
	// Sequence numbering continues past the snapshot.
	if seq := mustAppend(t, l2, []byte("c")); seq != 3 {
		t.Fatalf("append after recovery got seq %d, want 3", seq)
	}
}

// TestSnapshotCrashBeforeRename: the temp file must be ignored and the
// previous snapshot (or none) stays authoritative.
func TestSnapshotCrashBeforeRename(t *testing.T) {
	for _, point := range []string{PointSnapshotWrite, PointSnapshotSync, PointSnapshotRename} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			fi := &FaultInjector{}
			l, _ := open(t, dir, Options{Fault: fi})
			mustAppend(t, l, []byte("a"))
			fi.Crash(point, 1)
			if err := l.Snapshot([]byte("never")); !errors.Is(err, ErrInjected) {
				t.Fatalf("Snapshot = %v, want injected", err)
			}
			fi.Kill()
			l.Close()

			l2, rec := open(t, dir, Options{})
			defer l2.Close()
			if rec.Snapshot != nil {
				t.Fatalf("failed snapshot became visible: %q", rec.Snapshot)
			}
			if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "a" {
				t.Fatalf("journal lost records around failed snapshot: %+v", rec.Records)
			}
		})
	}
}

func TestCorruptSnapshotRefusesToStart(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{})
	mustAppend(t, l, []byte("a"))
	if err := l.Snapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	path := filepath.Join(dir, snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

// TestTornAppendPoisonsLog: after a torn write the live log refuses
// further appends (the tail length is unknown), and recovery truncates
// the torn frame.
func TestTornAppendPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fi := &FaultInjector{}
	l, _ := open(t, dir, Options{Fault: fi})
	mustAppend(t, l, []byte("good"))
	fi.CrashPartial(PointAppendWrite, 1, 0.5)
	if _, err := l.Append([]byte("torn-record-payload")); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append = %v, want injected", err)
	}
	if _, err := l.Append([]byte("after")); err == nil {
		t.Fatal("append after a torn write succeeded; the log must be poisoned")
	}
	fi.Kill()
	l.Close()

	l2, rec := open(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "good" {
		t.Fatalf("recovered %+v, want only the pre-tear record", rec.Records)
	}
	if !rec.TornTail {
		t.Fatal("torn write not reported on recovery")
	}
	// The truncated log accepts appends again.
	mustAppend(t, l2, []byte("after-recovery"))
}

// TestAppendPartsFrameLikeOne: a record appended in parts is framed byte
// for byte as the same bytes appended whole — one header, one CRC over seq
// and the concatenation — so nothing reading the journal can tell them
// apart. Empty parts are nothing; a record of empty parts is empty.
func TestAppendPartsFrameLikeOne(t *testing.T) {
	parts := [][]byte{[]byte(`{"window":{"fleet":"f","workloads":`), nil, []byte(`[{"name":"a"}]`), {}, []byte(`}}`)}
	whole := bytes.Join(parts, nil)
	files := make([][]byte, 2)
	for i, appendRecord := range []func(*Log) (uint64, error){
		func(l *Log) (uint64, error) { return l.Append(parts...) },
		func(l *Log) (uint64, error) { return l.Append(whole) },
	} {
		dir := t.TempDir()
		l, _ := open(t, dir, Options{Sync: SyncNone})
		mustAppend(t, l, []byte("before"))
		if seq, err := appendRecord(l); err != nil || seq != 2 {
			t.Fatalf("append: seq %d, %v", seq, err)
		}
		if _, err := l.Append(nil, []byte{}); err == nil {
			t.Error("a record of empty parts was appended")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(filepath.Join(dir, journalFile)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("journal of the parts\n%q\nis not the journal of the whole\n%q", files[0], files[1])
	}
}

// TestTornAppendPoisonsLogInAnyPart: a torn write of a record appended in
// parts, cut inside the header or inside any part, poisons the live log,
// and recovery returns exactly the frames before it.
func TestTornAppendPoisonsLogInAnyPart(t *testing.T) {
	parts := [][]byte{bytes.Repeat([]byte{'h'}, 40), bytes.Repeat([]byte{'s'}, 400), []byte("}}")}
	frame := frameHeaderSize + 40 + 400 + 2
	for _, cut := range []int{frameHeaderSize / 2, frameHeaderSize + 20, frameHeaderSize + 40 + 200, frame - 1} {
		dir := t.TempDir()
		fi := &FaultInjector{}
		l, _ := open(t, dir, Options{Fault: fi})
		mustAppend(t, l, []byte("good"))
		fi.CrashPartial(PointAppendWrite, 1, (float64(cut)+0.5)/float64(frame))
		if _, err := l.Append(parts...); !errors.Is(err, ErrInjected) {
			t.Fatalf("cut at %d: torn append = %v, want injected", cut, err)
		}
		if _, err := l.Append([]byte("after")); err == nil {
			t.Fatalf("cut at %d: append after a torn write succeeded; the log must be poisoned", cut)
		}
		fi.Kill()
		l.Close()
		st, err := os.Stat(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(frameHeaderSize+4+cut) {
			t.Fatalf("cut at %d: journal holds %d bytes, want the good frame and %d torn bytes", cut, st.Size(), cut)
		}
		l2, rec := open(t, dir, Options{})
		if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "good" || !rec.TornTail {
			t.Fatalf("cut at %d: recovered %+v (torn %v), want only the pre-tear record", cut, rec.Records, rec.TornTail)
		}
		mustAppend(t, l2, parts...)
		l2.Close()
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		fi := &FaultInjector{}
		l, _ := open(t, t.TempDir(), Options{Sync: SyncAlways, Fault: fi})
		defer l.Close()
		mustAppend(t, l, []byte("a"))
		mustAppend(t, l, []byte("b"))
		if got := fi.Hits(PointAppendSync); got != 2 {
			t.Fatalf("SyncAlways fsynced %d times for 2 appends, want 2", got)
		}
	})
	t.Run("none", func(t *testing.T) {
		fi := &FaultInjector{}
		l, _ := open(t, t.TempDir(), Options{Sync: SyncNone, Fault: fi})
		mustAppend(t, l, []byte("a"))
		if got := fi.Hits(PointAppendSync); got != 0 {
			t.Fatalf("SyncNone fsynced %d times mid-run, want 0", got)
		}
		// Close still flushes once so a clean shutdown loses nothing.
		l.Close()
		if got := fi.Hits(PointAppendSync); got != 1 {
			t.Fatalf("Close under SyncNone fsynced %d times, want 1", got)
		}
	})
	t.Run("interval", func(t *testing.T) {
		fi := &FaultInjector{}
		l, _ := open(t, t.TempDir(), Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond, Fault: fi})
		defer l.Close()
		mustAppend(t, l, []byte("a"))
		deadline := time.Now().Add(2 * time.Second)
		for fi.Hits(PointAppendSync) == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if fi.Hits(PointAppendSync) == 0 {
			t.Fatal("interval flusher never fsynced")
		}
	})
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestFaultInjectorCountdownAndKill(t *testing.T) {
	fi := &FaultInjector{}
	fi.Crash(PointAppendWrite, 3)
	for i := 1; i <= 2; i++ {
		if _, err := fi.check(PointAppendWrite); err != nil {
			t.Fatalf("hit %d fired early", i)
		}
	}
	if _, err := fi.check(PointAppendWrite); !errors.Is(err, ErrInjected) {
		t.Fatal("3rd hit did not fire")
	}
	if _, err := fi.check(PointAppendWrite); err != nil {
		t.Fatal("fault did not disarm after firing")
	}
	fi.Kill()
	for _, p := range Points {
		if _, err := fi.check(p); !errors.Is(err, ErrInjected) {
			t.Fatalf("point %s survived the kill switch", p)
		}
	}
}

func TestAppendValidation(t *testing.T) {
	l, _ := open(t, t.TempDir(), Options{})
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Error("oversized record accepted")
	}
}

// TestAppendReusesFrameBuffer: once the frame buffer has seen a record
// of the size, appending another allocates nothing of that size.
func TestAppendReusesFrameBuffer(t *testing.T) {
	l, _ := open(t, t.TempDir(), Options{Sync: SyncNone})
	defer l.Close()
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	mustAppend(t, l, payload)
	perOp := testing.AllocsPerRun(5, func() { mustAppend(t, l, payload) })
	if perOp > 2 {
		t.Errorf("Append makes %.0f allocations per record, want none of them the frame", perOp)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustAppend(t, l, payload)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(payload))/16 {
		t.Errorf("Append allocated %d bytes for a %d-byte record", got, len(payload))
	}
}

// TestRecoveredPayloadsAliasOneRead: recovery hands out sub-slices of the
// buffer it read the journal into — cap-clipped, so appending to one
// cannot run into the next frame — and they stay intact after the log
// truncates a torn tail and appends again.
func TestRecoveredPayloadsAliasOneRead(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{})
	payloads := [][]byte{[]byte("first"), bytes.Repeat([]byte{7}, 4096), []byte("third")}
	for _, p := range payloads {
		mustAppend(t, l, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail so Open truncates the file under the buffer it read.
	path := filepath.Join(dir, journalFile)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	l2, rec := open(t, dir, Options{})
	defer l2.Close()
	if !rec.TornTail || len(rec.Records) != 2 {
		t.Fatalf("recovered %d records (torn %v), want 2 and a torn tail", len(rec.Records), rec.TornTail)
	}
	for i, r := range rec.Records {
		if cap(r.Payload) != len(r.Payload) {
			t.Errorf("record %d: payload cap %d > len %d", i, cap(r.Payload), len(r.Payload))
		}
	}
	mustAppend(t, l2, bytes.Repeat([]byte{9}, 8192))
	grown := append(rec.Records[0].Payload, "-grown"...)
	if !bytes.Equal(rec.Records[0].Payload, payloads[0]) || !bytes.Equal(rec.Records[1].Payload, payloads[1]) || string(grown) != "first-grown" {
		t.Error("recovered payloads changed after the log moved on")
	}
}
