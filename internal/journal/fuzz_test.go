package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen feeds Open arbitrary bytes as the journal file and, second
// argument, as the snapshot file (empty: no snapshot): the first code a
// restart runs, on bytes a crash wrote. Open must not panic, and may
// refuse to start only over a snapshot. When it starts, what it returned
// is held against a frame-by-frame walk of the input: the journal up to
// TornOffset (all of it without a torn tail) is whole frames, the records
// are exactly those of them the snapshot does not cover, each re-framed
// by appendFrame to the bytes it was read from, and the frame at
// TornOffset is one recovery had to stop at. Open is a Reader read to its
// end, so the walk, parseFrame over the bytes in memory, is the oracle for
// the Reader's checks of the frames it reads from the file. Then the
// directory Open left behind — the journal truncated there — opens again
// to the same records with no torn tail.
func FuzzOpen(f *testing.F) {
	// TestTornTail's and TestBitFlips' files: three 100-byte records, the
	// last one cut short, or one bit flipped.
	var ref []byte
	offsets := []int{0}
	for i := 0; i < 3; i++ {
		ref = appendFrame(ref, uint64(i+1), bytes.Repeat([]byte{byte('a' + i)}, 100))
		offsets = append(offsets, len(ref))
	}
	snap := appendFrame(nil, 2, []byte("state@2"))
	f.Add(ref, []byte(nil))
	f.Add(ref, snap) // a journal prefix the snapshot already covers
	f.Add(ref, snap[:len(snap)-1])
	f.Add([]byte(nil), []byte(nil))
	start, end := offsets[2], offsets[3]
	for _, cut := range []int{start + frameHeaderSize/2, start + frameHeaderSize, start + (end-start)/2, end - 1, start} {
		f.Add(ref[:cut], []byte(nil))
		f.Add(ref[:cut], snap)
	}
	for _, flip := range []int{offsets[0], offsets[0] + 5, offsets[1] + 9, offsets[1] + frameHeaderSize + 10, offsets[2] + frameHeaderSize + 50} {
		raw := bytes.Clone(ref)
		raw[flip] ^= 0x10
		f.Add(raw, []byte(nil))
	}

	f.Fuzz(func(t *testing.T, wal, snapshot []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snapshot) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapshot, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, rec, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			if len(snapshot) == 0 {
				t.Fatalf("Open refused a directory with no snapshot: %v", err)
			}
			return
		}
		good := len(wal)
		if rec.TornTail {
			good = int(rec.TornOffset)
		}
		if good < 0 || good > len(wal) || rec.TornTail != (good < len(wal)) {
			t.Fatalf("TornTail %v at %d of a %d-byte journal", rec.TornTail, rec.TornOffset, len(wal))
		}

		// The walk: every frame before good parses, and the ones past the
		// snapshot are the records, in order and byte for byte.
		next, lastSeq := 0, uint64(0)
		for off := 0; off < good; {
			seq, _, n, ferr := parseFrame(wal[off:good], MaxRecord)
			if ferr != nil {
				t.Fatalf("the journal kept up to %d does not parse at %d: %v", good, off, ferr)
			}
			if seq > rec.SnapshotSeq {
				if next == len(rec.Records) {
					t.Fatalf("the frame at %d (seq %d) is past the snapshot (seq %d) and was not returned", off, seq, rec.SnapshotSeq)
				}
				r := rec.Records[next]
				if frame := appendFrame(nil, r.Seq, r.Payload); !bytes.Equal(frame, wal[off:off+n]) {
					t.Fatalf("record %d (seq %d) re-framed is not the %d bytes at %d", next, r.Seq, n, off)
				}
				next++
			}
			lastSeq = seq
			off += n
		}
		if next != len(rec.Records) {
			t.Fatalf("Open returned %d records, the journal before %d holds %d past the snapshot", len(rec.Records), good, next)
		}
		if rec.TornTail {
			if seq, _, _, ferr := parseFrame(wal[good:], MaxRecord); ferr == nil && (lastSeq == 0 || seq > lastSeq) {
				t.Fatalf("Open truncated at %d, before a good frame (seq %d after %d)", good, seq, lastSeq)
			}
		}

		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if left, err := os.ReadFile(filepath.Join(dir, journalFile)); err != nil || !bytes.Equal(left, wal[:good]) {
			t.Fatalf("Open left a %d-byte journal (%v), want the first %d bytes of the input", len(left), err, good)
		}
		l2, again, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("reopening the truncated directory: %v", err)
		}
		defer l2.Close()
		if again.TornTail || len(again.Records) != len(rec.Records) || again.SnapshotSeq != rec.SnapshotSeq || !bytes.Equal(again.Snapshot, rec.Snapshot) {
			t.Fatalf("reopened to %d records (torn %v), first Open returned %d", len(again.Records), again.TornTail, len(rec.Records))
		}
		for i, r := range again.Records {
			if r.Seq != rec.Records[i].Seq || !bytes.Equal(r.Payload, rec.Records[i].Payload) {
				t.Fatalf("reopened record %d is seq %d, first Open returned seq %d", i, r.Seq, rec.Records[i].Seq)
			}
		}
	})
}

// appendFrame renders one record frame, whose payload is the parts in
// order, onto buf: the reference encoding the Log's writes are held to
// (TestFramesOnDiskAreTheReference) and FuzzOpen's oracle.
func appendFrame(buf []byte, seq uint64, parts ...[]byte) []byte {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	var header [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(size))
	binary.LittleEndian.PutUint64(header[8:16], seq)
	start := len(buf)
	frame := append(buf, header[:]...)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	binary.LittleEndian.PutUint32(frame[start+4:start+8], crc32.Checksum(frame[start+8:], castagnoli))
	return frame
}
