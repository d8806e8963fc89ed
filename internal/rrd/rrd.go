// Package rrd implements a round-robin time-series archive in the style of
// rrdtool, the format used by Cacti, Ganglia and Munin — the monitoring
// tools that produced the paper's real-world load statistics (Section 7.1).
// A database holds a fixed-size primary ring at base resolution plus any
// number of consolidated archives (RRAs) at coarser resolutions, each rolled
// up with a consolidation function (AVERAGE or MAX). Old data is overwritten
// in place, so storage is constant regardless of how long monitoring runs —
// exactly the "every 15 seconds for the last hour … every 24 hours for the
// last year" layout the paper describes.
package rrd

import (
	"errors"
	"fmt"
	"math"
	"time"

	"kairos/internal/series"
)

// CF is a consolidation function for rolling base samples into an archive.
type CF int

const (
	// Average consolidates by arithmetic mean (rrdtool AVERAGE).
	Average CF = iota
	// MaxCF consolidates by maximum (rrdtool MAX).
	MaxCF
)

// String returns the rrdtool-style name of the consolidation function.
func (c CF) String() string {
	switch c {
	case Average:
		return "AVERAGE"
	case MaxCF:
		return "MAX"
	default:
		return fmt.Sprintf("CF(%d)", int(c))
	}
}

// ArchiveSpec describes one consolidated archive: every Steps base samples
// are rolled into one archive row, and the archive retains Rows rows.
type ArchiveSpec struct {
	CF    CF
	Steps int // base samples per archive row (≥ 1)
	Rows  int // ring capacity (≥ 1)
}

// validate refuses a spec New cannot build an archive from.
func (s ArchiveSpec) validate() error {
	if s.Steps < 1 || s.Rows < 1 {
		return fmt.Errorf("rrd: invalid archive spec %+v", s)
	}
	if s.CF != Average && s.CF != MaxCF {
		return fmt.Errorf("rrd: unknown consolidation function %v", s.CF)
	}
	return nil
}

// archive is one round-robin ring of consolidated data.
type archive struct {
	spec    ArchiveSpec
	ring    []float64
	head    int   // next write position
	written int64 // total rows ever written
	// accumulation state for the in-progress row
	accSeen  int // base samples seen this row, including NaN
	accCount int // non-NaN samples seen this row
	accSum   float64
	accMax   float64
}

// DB is a round-robin database: a base step, a last-update cursor, and a set
// of archives. It is not safe for concurrent use.
type DB struct {
	step     time.Duration
	start    time.Time
	nUpdates int64
	archives []*archive
}

// New creates a round-robin database with base sample interval step whose
// first sample is expected at start. Each spec adds one archive.
func New(start time.Time, step time.Duration, specs ...ArchiveSpec) (*DB, error) {
	if step <= 0 {
		return nil, errors.New("rrd: step must be positive")
	}
	if len(specs) == 0 {
		return nil, errors.New("rrd: at least one archive required")
	}
	db := &DB{step: step, start: start}
	for _, s := range specs {
		if err := s.validate(); err != nil {
			return nil, err
		}
		db.archives = append(db.archives, &archive{
			spec: s,
			ring: make([]float64, s.Rows),
		})
	}
	return db, nil
}

// Step returns the base sampling interval.
func (db *DB) Step() time.Duration { return db.step }

// Updates returns the number of base samples ingested so far.
func (db *DB) Updates() int64 { return db.nUpdates }

// Update ingests the next base sample. Samples must arrive in order; the
// i-th sample corresponds to time start + i·step. NaN samples are treated as
// "unknown" and contribute nothing to consolidation (a row consolidated
// entirely from NaN is NaN).
func (db *DB) Update(v float64) {
	db.nUpdates++
	for _, a := range db.archives {
		a.push(v)
	}
}

// UpdateAll ingests a batch of consecutive base samples.
func (db *DB) UpdateAll(vs []float64) {
	for _, v := range vs {
		db.Update(v)
	}
}

func (a *archive) push(v float64) {
	if !math.IsNaN(v) {
		if a.accCount == 0 {
			a.accMax = v
		} else if v > a.accMax {
			a.accMax = v
		}
		a.accSum += v
		a.accCount++
	}
	// A row completes every Steps base samples, counted via written rows and
	// the accumulated sample count including NaNs.
	a.accSeen++
	if a.accSeen == a.spec.Steps {
		var row float64
		switch {
		case a.accCount == 0:
			row = math.NaN()
		case a.spec.CF == Average:
			row = a.accSum / float64(a.accCount)
		default:
			row = a.accMax
		}
		a.ring[a.head] = row
		a.head = (a.head + 1) % len(a.ring)
		a.written++
		a.accSeen, a.accCount, a.accSum, a.accMax = 0, 0, 0, 0
	}
}

// Fetch returns the contents of archive idx as a time series, oldest row
// first. Only fully consolidated rows are returned; an in-progress row is
// not visible. The series start reflects the timestamp of the oldest
// retained row.
func (db *DB) Fetch(idx int) (*series.Series, error) {
	if idx < 0 || idx >= len(db.archives) {
		return nil, fmt.Errorf("rrd: archive %d out of range", idx)
	}
	a := db.archives[idx]
	// A row count that has wrapped past the int64 range is a full ring.
	rows := int64(len(a.ring))
	if a.written >= 0 && a.written < rows {
		rows = a.written
	}
	out := make([]float64, rows)
	// The oldest retained row is `rows` positions behind head.
	for i := int64(0); i < rows; i++ {
		pos := (int64(a.head) - rows + i + int64(len(a.ring))*2) % int64(len(a.ring))
		out[i] = a.ring[pos]
	}
	rowStep := db.step * time.Duration(a.spec.Steps)
	// Row r covers base samples [r·Steps, (r+1)·Steps); stamp it at its
	// interval start.
	firstRow := a.written - rows
	start := db.start.Add(time.Duration(firstRow) * rowStep)
	return series.New(start, rowStep, out), nil
}

// Archives returns the archive specifications.
func (db *DB) Archives() []ArchiveSpec {
	specs := make([]ArchiveSpec, len(db.archives))
	for i, a := range db.archives {
		specs[i] = a.spec
	}
	return specs
}
