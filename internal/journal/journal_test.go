package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// joinTimeout bounds the tests' waits on a join the journal owes — a
// checked append's writer, the log's end handed back, the flusher's exit
// in Close — so a lost join fails in seconds instead of hanging the test
// binary until go test's timeout.
const joinTimeout = 5 * time.Second

// returnsWithin runs f and reports whether it returned within
// joinTimeout. A stuck f is left running.
func returnsWithin(f func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
		return true
	case <-time.After(joinTimeout):
		return false
	}
}

// within runs f and fails the test if it has not returned within
// joinTimeout.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	if !returnsWithin(f) {
		t.Fatalf("%s did not return within %v", what, joinTimeout)
	}
}

// closeWithin is Close for a defer: one that has not returned within
// joinTimeout fails the test.
func closeWithin(t *testing.T, l *Log) {
	t.Helper()
	if !returnsWithin(func() { _ = l.Close() }) {
		t.Errorf("Close did not return within %v", joinTimeout)
	}
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
		defer closeWithin(t, l)
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

// TestAppendCopiesNoRecord: the frame is written from the record's parts,
// so appending a record allocates nothing, let alone something its size.
func TestAppendCopiesNoRecord(t *testing.T) {
	l, _ := open(t, t.TempDir(), Options{Sync: SyncNone})
	defer l.Close()
	head, span, tail := []byte(`{"window":{"fleet":"f","workloads":`), bytes.Repeat([]byte{0x5A}, 1<<20), []byte(`}}`)
	if perOp := testing.AllocsPerRun(5, func() { mustAppend(t, l, head, span, tail) }); perOp != 0 && !raceEnabled {
		t.Errorf("Append makes %.0f allocations per record, want none", perOp)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustAppend(t, l, span)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(span))/16 {
		t.Errorf("Append allocated %d bytes for a %d-byte record", got, len(span))
	}
}

// TestFramesOnDiskAreTheReference: what the Log writes — a record appended
// whole or in parts, checked or not, and a snapshot — is byte for byte the
// frame appendFrame renders, the encoding FuzzOpen holds recovery to.
func TestFramesOnDiskAreTheReference(t *testing.T) {
	parts := [][]byte{[]byte(`{"window":{"fleet":"f","workloads":`), nil, bytes.Repeat([]byte("0.25,"), 3000), {}, []byte(`}}`)}
	dir := t.TempDir()
	l, _ := open(t, dir, Options{Sync: SyncAlways})
	var want []byte
	mustAppend(t, l, []byte("one"))
	want = appendFrame(want, 1, []byte("one"))
	mustAppend(t, l, parts...)
	want = appendFrame(want, 2, parts...)
	if seq, err := l.AppendChecked(func() error { return nil }, parts...); err != nil || seq != 3 {
		t.Fatalf("AppendChecked: seq %d, %v", seq, err)
	}
	want = appendFrame(want, 3, parts...)
	wal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal, want) {
		t.Fatalf("the journal's %d bytes are not the %d bytes of the reference frames", len(wal), len(want))
	}
	state := bytes.Repeat([]byte("state "), 5000)
	if err := l.Snapshot(state); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, appendFrame(nil, 3, state)) {
		t.Fatalf("the snapshot file's %d bytes are not the reference frame of its state", len(snap))
	}
}

// TestAppendCheckedRefusalLeavesNoTrace: a record its check refuses is
// not journaled — the file is byte for byte what it was, the error is the
// check's, and the next record takes the refused one's seq — under every
// sync policy, whether the check ends before the write or after it. A
// check runs, and decides the error, even on a log that cannot take the
// record; one that panics poisons the log instead of leaving it locked.
func TestAppendCheckedRefusalLeavesNoTrace(t *testing.T) {
	refused := errors.New("refused")
	record := [][]byte{[]byte("head:"), bytes.Repeat([]byte{'s'}, 1<<16), []byte(":tail")}
	for _, sync := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		for _, slow := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/slow=%v", sync, slow), func(t *testing.T) {
				dir := t.TempDir()
				l, _ := open(t, dir, Options{Sync: sync})
				defer closeWithin(t, l)
				mustAppend(t, l, []byte("before"))
				path := filepath.Join(dir, journalFile)
				before, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				within(t, "a refused checked append", func() {
					_, err = l.AppendChecked(func() error {
						if slow {
							time.Sleep(5 * time.Millisecond)
						}
						return refused
					}, record...)
				})
				if err != refused {
					t.Fatalf("refused append = %v, want the check's error", err)
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
					t.Fatalf("the journal is %d bytes after a refused record (%v), %d before", len(after), err, len(before))
				}
				if st := l.Stats(); st.Seq != 1 || st.Appends != 1 || st.SizeBytes != int64(len(before)) {
					t.Fatalf("stats after a refused record: %+v", st)
				}
				var seq uint64
				within(t, "the append after a refused record", func() { seq, err = l.Append([]byte("after")) })
				if err != nil || seq != 2 {
					t.Fatalf("the record after a refused one got seq %d (%v), want 2", seq, err)
				}
			})
		}
	}
	t.Run("closed log", func(t *testing.T) {
		l, _ := open(t, t.TempDir(), Options{})
		l.Close()
		var err error
		within(t, "a refused checked append on a closed log", func() {
			_, err = l.AppendChecked(func() error { return refused }, []byte("x"))
		})
		if err != refused {
			t.Fatalf("refused append on a closed log = %v, want the check's error", err)
		}
		within(t, "a checked append on a closed log", func() {
			_, err = l.AppendChecked(func() error { return nil }, []byte("x"))
		})
		if err == nil {
			t.Fatal("a closed log took a checked record")
		}
	})
	t.Run("panicking check", func(t *testing.T) {
		l, _ := open(t, t.TempDir(), Options{})
		defer closeWithin(t, l)
		within(t, "a checked append whose check panics", func() {
			defer func() { _ = recover() }()
			_, _ = l.AppendChecked(func() error { panic("check") }, []byte("x"))
		})
		var err error
		within(t, "the append after a panicking check", func() { _, err = l.Append([]byte("after")) })
		if err == nil {
			t.Fatal("append after a panicking check succeeded; the log must be poisoned")
		}
	})
}

// TestAppendWaitsForCheckedAppend: once a checked append has written its
// frame, the log's end is its own until its check returns — an append
// waits, and goes after the record if the check approves it and in its
// place if not — but Stats and Sync answer at once.
func TestAppendWaitsForCheckedAppend(t *testing.T) {
	for _, approve := range []bool{true, false} {
		t.Run(fmt.Sprintf("approve=%v", approve), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := open(t, dir, Options{Sync: SyncAlways})
			defer closeWithin(t, l)
			inCheck, release := make(chan struct{}), make(chan struct{})
			checkedSeq := make(chan uint64, 1)
			go func() {
				seq, _ := l.AppendChecked(func() error {
					for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
						if st, err := os.Stat(filepath.Join(dir, journalFile)); err == nil && st.Size() > 0 || time.Now().After(deadline) {
							break
						}
					}
					close(inCheck)
					<-release
					if !approve {
						return errors.New("refused")
					}
					return nil
				}, []byte("checked"))
				checkedSeq <- seq
			}()
			within(t, "the checked append's write", func() { <-inCheck })
			var st Stats
			within(t, "Stats during the check", func() { st = l.Stats() })
			if st.Seq != 0 {
				t.Fatalf("stats during the check: %+v", st)
			}
			var err error
			within(t, "Sync during the check", func() { err = l.Sync() })
			if err != nil {
				t.Fatal(err)
			}
			appended := make(chan uint64, 1)
			go func() {
				seq, err := l.Append([]byte("plain"))
				if err != nil {
					t.Error(err)
				}
				appended <- seq
			}()
			select {
			case seq := <-appended:
				t.Fatalf("an append got seq %d while a checked append held the log's end", seq)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			want := uint64(1)
			var seq uint64
			if approve {
				want = 2
				within(t, "the approved checked append", func() { seq = <-checkedSeq })
				if seq != 1 {
					t.Fatalf("the checked record got seq %d, want 1", seq)
				}
			}
			within(t, "the append behind the checked one", func() { seq = <-appended })
			if seq != want {
				t.Fatalf("the append after the checked one got seq %d, want %d", seq, want)
			}
		})
	}
}

// TestAppendCheckedCrashBeforeCommit: a crash at any point of a checked
// append before its commit is whole — the frame's write (whole or torn),
// its sync, the commit write (whole or torn) — loses the record: recovery
// reads what reached the file as a torn tail and returns the records
// before it. A
// crash at the commit's sync, after the commit reached the file, keeps it.
func TestAppendCheckedCrashBeforeCommit(t *testing.T) {
	record := [][]byte{[]byte("head:"), bytes.Repeat([]byte{'s'}, 4000), []byte(":tail")}
	for _, tc := range []struct {
		name  string
		arm   func(fi *FaultInjector)
		torn  bool // something of the record reached the file
		keeps bool
	}{
		{"write", func(fi *FaultInjector) { fi.Crash(PointAppendWrite, 1) }, false, false},
		{"write/torn", func(fi *FaultInjector) { fi.CrashPartial(PointAppendWrite, 1, 0.5) }, true, false},
		{"write/whole", func(fi *FaultInjector) { fi.CrashPartial(PointAppendWrite, 1, 1) }, true, false},
		{"sync", func(fi *FaultInjector) { fi.Crash(PointAppendSync, 1) }, true, false},
		{"commit", func(fi *FaultInjector) { fi.Crash(PointAppendCommit, 1) }, true, false},
		{"commit/torn", func(fi *FaultInjector) { fi.CrashPartial(PointAppendCommit, 1, 0.5) }, true, false},
		{"commit sync", func(fi *FaultInjector) { fi.Crash(PointAppendSync, 2) }, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fi := &FaultInjector{}
			l, _ := open(t, dir, Options{Sync: SyncAlways, Fault: fi})
			mustAppend(t, l, []byte("good"))
			tc.arm(fi)
			if _, err := l.AppendChecked(func() error { return nil }, record...); !errors.Is(err, ErrInjected) {
				t.Fatalf("crashed append = %v, want injected", err)
			}
			fi.Kill()
			l.Close()
			l2, rec := open(t, dir, Options{})
			defer l2.Close()
			want := 1
			if tc.keeps {
				want = 2
			}
			if len(rec.Records) != want || string(rec.Records[0].Payload) != "good" || rec.TornTail != tc.torn {
				t.Fatalf("recovered %d records (torn %v), want %d", len(rec.Records), rec.TornTail, want)
			}
			if tc.keeps && !bytes.Equal(rec.Records[1].Payload, bytes.Join(record, nil)) {
				t.Fatal("the record whose commit reached the file reads back changed")
			}
		})
	}
}

// TestRecoveredPayloadsAreTheirOwn: Open hands out each payload in a
// buffer of its own — cap-clipped, so appending to one cannot run into
// another, even when the reader first read a larger frame the snapshot
// covers into it — and they stay intact after the log truncates a torn
// tail and appends again.
func TestRecoveredPayloadsAreTheirOwn(t *testing.T) {
	dir := t.TempDir()
	// A 4 KiB frame the snapshot covers, left at the journal's head by a
	// crash before the rotation truncated it.
	fi := &FaultInjector{}
	l, _ := open(t, dir, Options{Fault: fi})
	mustAppend(t, l, bytes.Repeat([]byte{5}, 4096))
	fi.Crash(PointSnapshotTruncate, 1)
	if err := l.Snapshot([]byte("state@1")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Snapshot with truncate fault = %v, want injected", err)
	}
	fi.Kill()
	l.Close()

	l, _ = open(t, dir, Options{})
	payloads := [][]byte{[]byte("first"), bytes.Repeat([]byte{7}, 4096), []byte("third")}
	for _, p := range payloads {
		mustAppend(t, l, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail so Open truncates the file it read the payloads from.
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
	if !rec.TornTail || rec.SnapshotSeq != 1 || len(rec.Records) != 2 {
		t.Fatalf("recovered %d records after seq %d (torn %v), want 2 after seq 1 and a torn tail", len(rec.Records), rec.SnapshotSeq, rec.TornTail)
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

// TestReaderMatchesOpen: a Reader lent one buffer, smaller than every
// record to begin with, returns the records Open returns — seq and payload
// bytes — and ends the log where Open does, on a journal cut at every byte
// of its last two frames and on one with a bit flipped in any header byte
// of any frame. Log truncates the file to where Open truncates it.
func TestReaderMatchesOpen(t *testing.T) {
	var ref []byte
	offsets := []int{0}
	for i, size := range []int{300, 100, 500, 200} {
		ref = appendFrame(ref, uint64(i+1), bytes.Repeat([]byte{byte('a' + i)}, size))
		offsets = append(offsets, len(ref))
	}
	files := map[string][]byte{}
	for cut := offsets[2]; cut <= len(ref); cut++ {
		files[fmt.Sprintf("cut at %d", cut)] = ref[:cut]
	}
	for k := 0; k+1 < len(offsets); k++ {
		for b := 0; b < frameHeaderSize; b++ {
			raw := bytes.Clone(ref)
			raw[offsets[k]+b] ^= 0x01
			files[fmt.Sprintf("bit flipped in byte %d of frame %d", b, k)] = raw
		}
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for name, wal := range files {
		for _, dir := range dirs {
			if err := os.WriteFile(filepath.Join(dir, journalFile), wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, want := open(t, dirs[0], Options{Sync: SyncNone})
		wantSize := l.Stats().SizeBytes
		l.Close()

		r, err := OpenReader(dirs[1], Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf := make([]byte, 8)
		var got []Record
		for {
			rec, err := r.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got = append(got, Record{Seq: rec.Seq, Payload: bytes.Clone(rec.Payload)})
			buf = rec.Payload
		}
		if len(got) != len(want.Records) || r.TornTail != want.TornTail || r.TornOffset != want.TornOffset {
			t.Fatalf("%s: the reader read %d records (torn %v at %d), Open %d (torn %v at %d)",
				name, len(got), r.TornTail, r.TornOffset, len(want.Records), want.TornTail, want.TornOffset)
		}
		for i, rec := range got {
			if rec.Seq != want.Records[i].Seq || !bytes.Equal(rec.Payload, want.Records[i].Payload) {
				t.Fatalf("%s: record %d is seq %d (%d bytes), Open's seq %d (%d bytes)",
					name, i, rec.Seq, len(rec.Payload), want.Records[i].Seq, len(want.Records[i].Payload))
			}
		}
		l, err = r.Log()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if size := l.Stats().SizeBytes; size != wantSize {
			t.Errorf("%s: the reader left a %d-byte log, Open %d", name, size, wantSize)
		}
		l.Close()
	}
}

// TestSnapshotLargerThanARecord: the snapshot holds the whole registry, so
// it is bounded by MaxSnapshot, not by MaxRecord. One just over MaxRecord
// is written, and read back whole.
func TestSnapshotLargerThanARecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, Options{Sync: SyncNone})
	mustAppend(t, l, []byte("a"))
	state := make([]byte, MaxRecord+1)
	for i := range state {
		state[i] = byte(i % 251)
	}
	if err := l.Snapshot(state); err != nil {
		t.Fatalf("Snapshot of %d bytes: %v", len(state), err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec := open(t, dir, Options{})
	defer l.Close()
	if rec.SnapshotSeq != 1 || !bytes.Equal(rec.Snapshot, state) {
		t.Fatalf("read back a %d-byte snapshot covering seq %d, wrote %d bytes covering seq 1", len(rec.Snapshot), rec.SnapshotSeq, len(state))
	}
}
