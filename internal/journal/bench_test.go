package journal

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// windowSized is the payload of one 197-server observation window.
const windowSized = 2 << 20

// BenchmarkAppend2MB appends window-sized records under the two fsync
// policies the server is run with, and, as the server journals a window,
// in parts: a record head, a 2.2 MB span and "}}". The span is one of 24,
// 53 MB in all, so it is out of the core's own caches when it is framed,
// as a window's span is by the time its record is written. Append
// writes a frame from the record's parts, so an op must not allocate
// (allocs/op is pinned at 0 for the parts case in BENCH_counts.json).
func BenchmarkAppend2MB(b *testing.B) {
	payload := bytes.Repeat([]byte("0.123456789012345,"), windowSized/18)
	head, tail := []byte(`{"window":{"fleet":"all-197","workloads":`), []byte(`}}`)
	spans := make([][]byte, 24)
	for i := range spans {
		spans[i] = bytes.Repeat([]byte("0.123456789012345,"), 2_200_000/18)
	}
	for _, tc := range []struct {
		name  string
		sync  SyncPolicy
		parts bool
	}{{"always", SyncAlways, false}, {"none", SyncNone, false}, {"parts", SyncNone, true}} {
		b.Run(tc.name, func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			appendOne := func(i int) {
				var err error
				if tc.parts {
					_, err = l.Append(head, spans[i%len(spans)], tail)
				} else {
					_, err = l.Append(payload)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			size := len(payload)
			if tc.parts {
				size = len(head) + len(spans[0]) + len(tail)
			}
			appendOne(0)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				appendOne(i + 1)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); perOp > uint64(size)/16 {
				b.Fatalf("Append allocates %d bytes per %d-byte record: it copies the record", perOp, size)
			}
		})
	}
}

// BenchmarkRecover64x2MB opens a journal of 64 window-sized records — a
// quarter of a snapshot interval — which reads the file once, into a
// buffer of its size, and hands out the payloads without copying them.
func BenchmarkRecover64x2MB(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0.123456789012345,"), windowSized/18)
	const records = 64
	for i := 0; i < records; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(records * (len(payload) + frameHeaderSize)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, rec, err := Open(dir, Options{Sync: SyncNone})
		if err != nil || len(rec.Records) != records {
			b.Fatalf("recovered %d records, %v", len(rec.Records), err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead64x2MB reads the journal of BenchmarkRecover64x2MB through
// a Reader lent one window-sized buffer, as replay's decode workers do: the
// log is read frame by frame into memory already owned, so an op allocates
// nothing the size of a record (B/op is pinned in BENCH_counts.json).
func BenchmarkRead64x2MB(b *testing.B) {
	dir := b.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0.123456789012345,"), windowSized/18)
	const records = 64
	for i := 0; i < records; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, windowSized)
	b.SetBytes(int64(records * (len(payload) + frameHeaderSize)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(dir, Options{Sync: SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; ; n++ {
			rec, err := r.Next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			buf = rec.Payload
		}
		if n != records {
			b.Fatalf("read %d records, want %d", n, records)
		}
		l, err := r.Log()
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
