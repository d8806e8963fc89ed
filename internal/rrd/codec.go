package rrd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// The binary layout is little-endian:
//
//	magic "KRRD" | version u32 | startUnixNano i64 | step i64 | nUpdates i64
//	| nArchives u32 | per archive: cf u32, steps u32, rows u32, head u32,
//	written i64, accSeen u32, accCount u32, accSum f64, accMax f64,
//	ring [rows]f64
//
// NaN rows round-trip (encoded as the canonical quiet NaN bit pattern).

const (
	magic   = "KRRD"
	version = 1
)

// fileHeader and archiveHeader are the fixed-size parts of that layout,
// as encoding/binary reads and writes them.
type fileHeader struct {
	Version                       uint32
	StartUnixNano, Step, NUpdates int64
	NArchives                     uint32
}

type archiveHeader struct {
	CF, Steps, Rows, Head uint32
	Written               int64
	AccSeen, AccCount     uint32
	AccSum, AccMax        float64
}

// WriteTo serializes the database. It implements io.WriterTo.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	write := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) } //kairoslint:allow errflow: binary.Write to a bytes.Buffer cannot fail for fixed-size values
	write(fileHeader{version, db.start.UnixNano(), int64(db.step), db.nUpdates, uint32(len(db.archives))})
	for _, a := range db.archives {
		write(archiveHeader{uint32(a.spec.CF), uint32(a.spec.Steps), uint32(a.spec.Rows), uint32(a.head),
			a.written, uint32(a.accSeen), uint32(a.accCount), a.accSum, a.accMax})
		for _, v := range a.ring {
			write(math.Float64bits(v))
		}
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ringChunk is how many ring rows Read takes per read: the ring grows as
// its bytes arrive, so a header claiming millions of rows costs memory only
// once the rows are there.
const ringChunk = 4096

// Read deserializes a database previously written with WriteTo. It refuses
// what New would not build — a step that is not positive, an archive spec
// New refuses — and archive state push and Fetch cannot continue from: a
// head outside the ring, a negative row count, a row in progress that is
// already complete (accSeen ≥ Steps) or counts more samples than it has
// seen.
func Read(r io.Reader) (*DB, error) {
	head := make([]byte, 4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("rrd: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("rrd: bad magic")
	}
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var fh fileHeader
	if err := read(&fh); err != nil {
		return nil, err
	}
	switch {
	case fh.Version != version:
		return nil, fmt.Errorf("rrd: unsupported version %d", fh.Version)
	case fh.Step <= 0:
		return nil, errors.New("rrd: step must be positive")
	case fh.NArchives == 0 || fh.NArchives > 1<<16:
		return nil, fmt.Errorf("rrd: implausible archive count %d", fh.NArchives)
	}
	db := &DB{
		step:     time.Duration(fh.Step),
		start:    time.Unix(0, fh.StartUnixNano).UTC(),
		nUpdates: fh.NUpdates,
	}
	for i := uint32(0); i < fh.NArchives; i++ {
		var ah archiveHeader
		if err := read(&ah); err != nil {
			return nil, err
		}
		spec := ArchiveSpec{CF: CF(ah.CF), Steps: int(ah.Steps), Rows: int(ah.Rows)}
		if err := spec.validate(); err != nil {
			return nil, err
		}
		switch {
		case ah.Rows > 1<<24:
			return nil, fmt.Errorf("rrd: implausible ring size %d", ah.Rows)
		case ah.Head >= ah.Rows:
			return nil, fmt.Errorf("rrd: head %d out of ring %d", ah.Head, ah.Rows)
		case ah.Written < 0:
			return nil, fmt.Errorf("rrd: negative row count %d", ah.Written)
		case ah.AccCount > ah.AccSeen || ah.AccSeen >= ah.Steps:
			return nil, fmt.Errorf("rrd: row in progress has %d of %d samples seen, %d counted", ah.AccSeen, ah.Steps, ah.AccCount)
		}
		a := &archive{
			spec:     spec,
			ring:     make([]float64, 0, min(spec.Rows, ringChunk)),
			head:     int(ah.Head),
			written:  ah.Written,
			accSeen:  int(ah.AccSeen),
			accCount: int(ah.AccCount),
			accSum:   ah.AccSum,
			accMax:   ah.AccMax,
		}
		bits := make([]uint64, min(spec.Rows, ringChunk))
		for len(a.ring) < spec.Rows {
			chunk := bits[:min(len(bits), spec.Rows-len(a.ring))]
			if err := read(chunk); err != nil {
				return nil, err
			}
			for _, b := range chunk {
				a.ring = append(a.ring, math.Float64frombits(b))
			}
		}
		db.archives = append(db.archives, a)
	}
	return db, nil
}
