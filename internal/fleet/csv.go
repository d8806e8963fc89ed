package fleet

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"kairos/internal/floats"
	"kairos/internal/series"
)

// csvHeader is the column layout of fleet trace files.
var csvHeader = []string{
	"server", "cores", "clock_ghz", "ram_bytes", "sample",
	"cpu_util", "ws_bytes", "updates_per_sec",
}

// WriteCSV writes a fleet's traces as CSV, one row per (server, sample) —
// the interchange format for recorded monitoring statistics.
func (f *Fleet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, s := range f.Servers {
		for i, v := range s.CPU.Values {
			rec := []string{
				s.Name,
				strconv.Itoa(s.Cores),
				strconv.FormatFloat(s.ClockGHz, 'f', 3, 64),
				strconv.FormatInt(s.RAMBytes, 10),
				strconv.Itoa(i),
				strconv.FormatFloat(v, 'f', 6, 64),
				strconv.FormatFloat(s.WSBytes.Values[i], 'f', 0, 64),
				strconv.FormatFloat(s.UpdateRate.Values[i], 'f', 2, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a fleet from traces written by WriteCSV. The fleet name is
// taken from the caller; sample step is assumed to be SampleStep.
func ReadCSV(r io.Reader, name string) (Fleet, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return Fleet{}, fmt.Errorf("fleet: reading CSV header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return Fleet{}, fmt.Errorf("fleet: CSV has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return Fleet{}, fmt.Errorf("fleet: CSV column %d is %q, want %q", i, header[i], h)
		}
	}

	type acc struct {
		cores    int
		clock    float64
		ram      int64
		cpu, ws  []float64
		upd      []float64
		firstRow int
	}
	byServer := map[string]*acc{}
	var order []string
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Fleet{}, fmt.Errorf("fleet: reading CSV: %w", err)
		}
		row++
		name := rec[0]
		cores, err := strconv.Atoi(rec[1])
		if err != nil {
			return Fleet{}, fmt.Errorf("fleet: row %d: bad cores %q", row, rec[1])
		}
		// A measurement is finite and non-negative; strconv alone also takes
		// NaN, ±Inf and negatives, which would reach the solver's objective.
		measure := func(col int) (float64, error) {
			v, err := strconv.ParseFloat(rec[col], 64)
			if err != nil || !(v >= 0 && v <= math.MaxFloat64) {
				return 0, fmt.Errorf("fleet: row %d: bad %s %q", row, csvHeader[col], rec[col])
			}
			return v, nil
		}
		clock, err := measure(2)
		if err != nil {
			return Fleet{}, err
		}
		ram, err := strconv.ParseInt(rec[3], 10, 64)
		if err != nil {
			return Fleet{}, fmt.Errorf("fleet: row %d: bad ram %q", row, rec[3])
		}
		a, ok := byServer[name]
		if !ok {
			a = &acc{cores: cores, clock: clock, ram: ram, firstRow: row}
			byServer[name] = a
			order = append(order, name)
		} else if a.cores != cores || !floats.Same(a.clock, clock) || a.ram != ram {
			// Metadata must be constant per server: silently keeping the
			// first row's values would hide corrupted or mis-merged traces.
			return Fleet{}, fmt.Errorf(
				"fleet: row %d: server %q metadata (cores=%d clock=%g ram=%d) conflicts with row %d (cores=%d clock=%g ram=%d)",
				row, name, cores, clock, ram, a.firstRow, a.cores, a.clock, a.ram)
		}
		// Shuffled, dropped or repeated rows are a different trace.
		if sample, err := strconv.Atoi(rec[4]); err != nil || sample != len(a.cpu) {
			return Fleet{}, fmt.Errorf("fleet: row %d: sample %q, want %d, the next of server %q", row, rec[4], len(a.cpu), name)
		}
		var vals [3]float64
		for i := range vals {
			if vals[i], err = measure(5 + i); err != nil {
				return Fleet{}, err
			}
		}
		a.cpu = append(a.cpu, vals[0])
		a.ws = append(a.ws, vals[1])
		a.upd = append(a.upd, vals[2])
	}
	if len(order) == 0 {
		return Fleet{}, fmt.Errorf("fleet: CSV contains no data rows")
	}
	sort.SliceStable(order, func(a, b int) bool {
		return byServer[order[a]].firstRow < byServer[order[b]].firstRow
	})

	start := time.Unix(0, 0).UTC()
	out := Fleet{Name: name, Dataset: -1}
	wantLen := len(byServer[order[0]].cpu)
	for _, sname := range order {
		a := byServer[sname]
		if len(a.cpu) != wantLen {
			return Fleet{}, fmt.Errorf("fleet: server %q has %d samples, others have %d",
				sname, len(a.cpu), wantLen)
		}
		out.Servers = append(out.Servers, Server{
			Name:       sname,
			Cores:      a.cores,
			ClockGHz:   a.clock,
			RAMBytes:   a.ram,
			CPU:        series.New(start, SampleStep, a.cpu),
			WSBytes:    series.New(start, SampleStep, a.ws),
			UpdateRate: series.New(start, SampleStep, a.upd),
		})
	}
	return out, nil
}
