// Package model implements Kairos' combined-load estimator (paper Section
// 4): linear composition with overhead correction for CPU, working-set
// summation for RAM, and — the hard part — an empirical, hardware-specific
// disk model built by sweeping a DBMS/OS/disk configuration with a synthetic
// OLTP workload across working-set sizes and row-update rates, then fitting
// a second-order Least-Absolute-Residuals polynomial (Figure 4).
//
// The key property the profile exploits (Section 4.1): running multiple
// databases with aggregate working set X at aggregate update throughput Y
// produces the same disk I/O as a single workload with working set X at
// rate Y — so one profile predicts arbitrary workload mixes.
package model

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"kairos/internal/dbms"
	"kairos/internal/disk"
	"kairos/internal/polyfit"
	"kairos/internal/unit"
	"kairos/internal/workload"
)

// ProfilePoint is one measured sweep point.
type ProfilePoint struct {
	// WSMB is the working-set size.
	WSMB unit.MB `json:"ws_mb"`
	// DemandRows and AchievedRows are the demanded and completed row-update
	// rates.
	DemandRows   unit.RowsPerSec `json:"demand_rows"`
	AchievedRows unit.RowsPerSec `json:"achieved_rows"`
	// WriteMBps is the measured total disk write throughput (log + pages).
	WriteMBps unit.MBps `json:"write_mbps"`
	// Saturated marks points where the disk could not keep up.
	Saturated bool `json:"saturated"`
}

// DiskProfile is the empirical transfer function of one
// DBMS/OS/hardware configuration.
type DiskProfile struct {
	// Fit maps (wsMB, rowsPerSec) → write MB/s; a degree-2 2-D polynomial
	// fitted with least absolute residuals, as in the paper.
	Fit polyfit.Poly2D `json:"fit"`
	// Envelope maps wsMB → the maximum sustainable row-update rate (the
	// paper's thick dashed quadratic in Figure 4).
	Envelope polyfit.Poly1D `json:"envelope"`
	// HasEnvelope reports whether any sweep point saturated the disk (the
	// envelope is meaningless otherwise).
	HasEnvelope bool `json:"has_envelope"`
	// Points is the raw sweep data.
	Points []ProfilePoint `json:"points"`
	// WSMinMB and WSMaxMB bound the working-set range the profile was
	// fitted on; predictions clamp the working set into this range, since
	// a degree-2 polynomial extrapolates wildly outside its data.
	WSMinMB unit.MB `json:"ws_min_mb"`
	WSMaxMB unit.MB `json:"ws_max_mb"`
	// ConfigName describes the profiled configuration.
	ConfigName string `json:"config_name"`
}

// clampWS restricts a working-set size to the fitted range.
func (p *DiskProfile) clampWS(wsMB unit.MB) unit.MB {
	if p.WSMaxMB > p.WSMinMB {
		if wsMB < p.WSMinMB {
			return p.WSMinMB
		}
		if wsMB > p.WSMaxMB {
			return p.WSMaxMB
		}
	}
	return wsMB
}

// PredictWriteMBps estimates the disk write throughput in MB/s of a
// combined workload with the given aggregate working set in bytes and
// row-update rate in rows/s. The arguments are series samples, hence
// float64.
func (p *DiskProfile) PredictWriteMBps(wsBytes, rowsPerSec float64) float64 {
	v := p.Fit.Eval(float64(p.clampWS(unit.MB(wsBytes/1e6))), rowsPerSec)
	if v < 0 {
		return 0
	}
	return v
}

// MaxRowsPerSec returns the saturation row-update rate in rows/s for an
// aggregate working set in bytes (a series sample), from the envelope fit.
// It returns +Inf-like large values only if the profile never saturated;
// callers should check HasEnvelope.
//
// The fitted quadratic can dip negative for working sets near the top of the
// sweep range; a negative sustainable rate is meaningless, so the result is
// clamped to 0. A zero envelope means "no update rate is sustainable at this
// working set". Callers read the envelope with one boundary rule: an
// aggregate rate at most the envelope is feasible, exactly at it included,
// so a rate of exactly 0 is still feasible over a zero envelope, and any
// positive rate is not (core's objective and its disk split count apply it;
// core's TestEnvelopeViolationBoundary pins it).
func (p *DiskProfile) MaxRowsPerSec(wsBytes float64) float64 {
	v := p.Envelope.Eval(float64(p.clampWS(unit.MB(wsBytes / 1e6))))
	if v < 0 {
		return 0
	}
	return v
}

// Save writes the profile as JSON.
func (p *DiskProfile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadProfile reads a profile saved by Save.
func LoadProfile(r io.Reader) (*DiskProfile, error) {
	var p DiskProfile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("model: decoding disk profile: %w", err)
	}
	return &p, nil
}

// Profiler sweeps a machine configuration with a controlled synthetic
// workload — the paper's offline profiling tool ("this takes about two
// hours" on real hardware; seconds on the simulator).
type Profiler struct {
	// DBMS is the instance configuration to profile. The buffer pool must
	// hold the largest working set in the sweep.
	DBMS dbms.Config
	// Disk is the disk hardware to profile.
	Disk disk.Params
	// WSPointsMB are the working-set sizes to sweep.
	WSPointsMB []float64
	// RatePoints are the demanded row-update rates to sweep.
	RatePoints []float64
	// Settle and Measure are the per-point warm-up and measurement windows.
	Settle, Measure time.Duration
	// Tick is the simulation step.
	Tick time.Duration
	// ConfigName labels the resulting profile.
	ConfigName string
}

// DefaultProfiler returns a profiler for the paper's test server sweeping
// the Figure 4 ranges: working sets 1000–3500 MB, rates up to 20K rows/sec.
func DefaultProfiler() Profiler {
	cfg := dbms.DefaultConfig()
	cfg.BufferPoolBytes = 8 << 30 // hold the largest working set with slack
	// The sweep characterizes the disk; give the profiling instance enough
	// CPU that the processor never becomes the bottleneck within the grid.
	cfg.CPUCores = 16
	cfg.CoreOpsPerSec = 2.5e6
	return Profiler{
		DBMS:       cfg,
		Disk:       disk.Server7200SATA(),
		WSPointsMB: []float64{1000, 1500, 2000, 2500, 3000, 3500},
		RatePoints: []float64{500, 1000, 2000, 4000, 8000, 12000, 16000, 20000, 30000, 40000},
		Settle:     40 * time.Second,
		Measure:    60 * time.Second,
		Tick:       100 * time.Millisecond,
		ConfigName: "mysql-7200rpm-sata",
	}
}

// Run executes the sweep and fits the profile.
func (pr Profiler) Run() (*DiskProfile, error) {
	if len(pr.WSPointsMB) == 0 || len(pr.RatePoints) == 0 {
		return nil, fmt.Errorf("model: empty sweep grid")
	}
	if pr.Tick <= 0 || pr.Measure < pr.Tick {
		return nil, fmt.Errorf("model: invalid timing (tick=%v measure=%v)", pr.Tick, pr.Measure)
	}
	var points []ProfilePoint
	for _, wsMB := range pr.WSPointsMB {
		wsPages := int64(wsMB * 1e6 / float64(pr.DBMS.PageSize))
		if wsPages*int64(pr.DBMS.PageSize) > pr.DBMS.BufferPoolBytes {
			return nil, fmt.Errorf("model: working set %v MB exceeds buffer pool", wsMB)
		}
		for _, rate := range pr.RatePoints {
			pt, err := pr.measurePoint(wsPages, wsMB, rate)
			if err != nil {
				return nil, err
			}
			points = append(points, pt)
		}
	}
	return fitProfile(points, pr.ConfigName)
}

// measurePoint runs one (working set, rate) cell of the sweep on a fresh
// instance and disk.
func (pr Profiler) measurePoint(wsPages int64, wsMB, rate float64) (ProfilePoint, error) {
	d, err := disk.New(pr.Disk)
	if err != nil {
		return ProfilePoint{}, err
	}
	in, err := dbms.NewInstance(pr.DBMS, d, 0)
	if err != nil {
		return ProfilePoint{}, err
	}
	// The sweep workload is update-only over the working set, like the
	// paper's TPC-C-derived generator with controlled update rate.
	spec := workload.Spec{
		Name:            "sweep",
		DataPages:       wsPages,
		WorkingSetPages: wsPages,
		TPS:             rate, // one update per "transaction"
		UpdatesPerTxn:   1,
	}
	gen, err := workload.Provision(in, spec, true)
	if err != nil {
		return ProfilePoint{}, err
	}
	run := func(dur time.Duration) {
		ticks := int(dur / pr.Tick)
		for t := 0; t < ticks; t++ {
			in.Tick(pr.Tick, []dbms.Request{gen.Next(pr.Tick)})
		}
	}
	run(pr.Settle)
	in.DropBacklog()
	gen.DB().TakeStats()
	d.TakeStats()
	run(pr.Measure)
	dwin := d.TakeStats()
	wwin := gen.DB().TakeStats()

	sec := pr.Measure.Seconds()
	achieved := float64(wwin.Updates) / sec
	return ProfilePoint{
		WSMB:         unit.MB(wsMB),
		DemandRows:   unit.RowsPerSec(rate),
		AchievedRows: unit.RowsPerSec(achieved),
		WriteMBps:    unit.MBps(float64(dwin.WriteBytes()) / 1e6 / sec),
		Saturated:    achieved < rate*0.95,
	}, nil
}

// fitProfile fits the LAR polynomial and the saturation envelope.
func fitProfile(points []ProfilePoint, name string) (*DiskProfile, error) {
	xs := make([]float64, len(points)) // wsMB
	ys := make([]float64, len(points)) // achieved rows/sec
	zs := make([]float64, len(points)) // write MB/s
	for i, pt := range points {
		xs[i], ys[i], zs[i] = float64(pt.WSMB), float64(pt.AchievedRows), float64(pt.WriteMBps)
	}
	fit, err := polyfit.FitLAR2D(xs, ys, zs, 2, 30)
	if err != nil {
		return nil, fmt.Errorf("model: LAR fit: %w", err)
	}

	// Envelope: for each working-set size, the maximum achieved rate among
	// saturated points (black circles in Figure 4), fitted quadratically.
	maxByWS := map[unit.MB]unit.RowsPerSec{}
	sawSaturation := false
	for _, pt := range points {
		if pt.Saturated {
			sawSaturation = true
		}
		if pt.AchievedRows > maxByWS[pt.WSMB] {
			maxByWS[pt.WSMB] = pt.AchievedRows
		}
	}
	// Least squares sums its points in the order given, so the sizes go in
	// ascending order: a map's order would move the envelope's last bits
	// from one fit of the same points to the next.
	sizes := make([]unit.MB, 0, len(maxByWS))
	for ws := range maxByWS {
		sizes = append(sizes, ws)
	}
	slices.Sort(sizes)
	ex := make([]float64, len(sizes))
	ey := make([]float64, len(sizes))
	for i, ws := range sizes {
		ex[i], ey[i] = float64(ws), float64(maxByWS[ws])
	}
	prof := &DiskProfile{Fit: fit, Points: points, ConfigName: name, HasEnvelope: sawSaturation}
	prof.WSMinMB, prof.WSMaxMB = points[0].WSMB, points[0].WSMB
	for _, pt := range points {
		if pt.WSMB < prof.WSMinMB {
			prof.WSMinMB = pt.WSMB
		}
		if pt.WSMB > prof.WSMaxMB {
			prof.WSMaxMB = pt.WSMB
		}
	}
	if len(ex) >= 3 && sawSaturation {
		env, err := polyfit.Fit1D(ex, ey, 2)
		if err != nil {
			return nil, fmt.Errorf("model: envelope fit: %w", err)
		}
		prof.Envelope = env
	} else {
		// Degenerate grids: fall back to a flat envelope at the largest
		// achieved rate so MaxRowsPerSec still returns something sane.
		var mx float64
		for _, r := range ey {
			if r > mx {
				mx = r
			}
		}
		prof.Envelope = polyfit.Poly1D{Coeffs: []float64{mx}}
	}
	return prof, nil
}
