package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"kairos"
	"kairos/internal/core"
	"kairos/internal/drift"
	"kairos/internal/model"
	"kairos/internal/predict"
	"kairos/internal/series"
	"kairos/internal/server"
)

// This file re-states, by hand and through exported functions only, what
// the daemon does between a request body and the library call it ends
// in: the conversions internal/server keeps unexported. The traced run
// needs them to time each step on its own; nothing outside bench/ may
// change in the PR that adds the benchmark, so they cannot be exported
// instead. Each mirrors the named function and must be kept in step
// with it.

// toWorkloads mirrors server.toWorkloads.
func toWorkloads(ws []server.WorkloadWire, needDisk bool) ([]kairos.Workload, error) {
	out := make([]kairos.Workload, len(ws))
	for i, w := range ws {
		step := w.StepSeconds
		if step == 0 {
			step = 300
		}
		if w.Name == "" || step <= 0 || len(w.CPU) == 0 || len(w.RAMBytes) == 0 {
			return nil, fmt.Errorf("workload %d (%q) is malformed", i, w.Name)
		}
		start := time.Unix(w.StartUnix, 0).UTC()
		dt := time.Duration(step * float64(time.Second))
		mk := func(vals []float64) *series.Series {
			if len(vals) == 0 {
				return nil
			}
			return series.New(start, dt, append([]float64(nil), vals...))
		}
		wl := kairos.Workload{
			Name:         w.Name,
			CPU:          mk(w.CPU),
			RAMBytes:     mk(w.RAMBytes),
			WSBytes:      mk(w.WSBytes),
			UpdateRate:   mk(w.UpdateRate),
			DiskWriteBps: mk(w.DiskWriteBps),
			Replicas:     w.Replicas,
			PinTo:        -1,
		}
		if needDisk && wl.WSBytes == nil {
			wl.WSBytes = wl.RAMBytes.Clone()
		}
		out[i] = wl
	}
	return out, nil
}

// fromWorkloads mirrors server.fromWorkloads (the snapshot direction).
func fromWorkloads(wls []kairos.Workload) []server.WorkloadWire {
	vals := func(s *series.Series) []float64 {
		if s == nil {
			return nil
		}
		return append([]float64(nil), s.Values...)
	}
	out := make([]server.WorkloadWire, len(wls))
	for i, w := range wls {
		out[i] = server.WorkloadWire{
			Name:        w.Name,
			StartUnix:   w.CPU.Start.Unix(),
			StepSeconds: w.CPU.Step.Seconds(),
			CPU:         vals(w.CPU),
			RAMBytes:    vals(w.RAMBytes),
			WSBytes:     vals(w.WSBytes),
			UpdateRate:  vals(w.UpdateRate),
		}
	}
	return out
}

// autoMachines mirrors server.toMachines for the auto_machines form,
// the only one the generator sends.
func autoMachines(am *server.AutoMachines) []kairos.Machine {
	out := make([]kairos.Machine, am.Count)
	for i := range out {
		out[i] = kairos.Machine{
			Name:         fmt.Sprintf("target-%02d", i),
			CPUCapacity:  1.0,
			RAMBytes:     96e9,
			DiskWriteBps: 50e6,
			Headroom:     0.05,
		}
	}
	return out
}

// session is the mirror of the server's per-fleet state: the decoded
// registration and the library handle built from it.
type session struct {
	req      server.RegisterRequest
	wls      []kairos.Workload
	machines []kairos.Machine
	disk     *model.DiskProfile
	// solve and resolve are the solver options server.toFleetOptions
	// derives from the registration's options.
	solve, resolve core.SolveOptions
	driftCfg       drift.Config
	fleet          *kairos.Fleet
}

// problem is the consolidation instance the session's cold solve prices.
func (s *session) problem() *core.Problem {
	return &core.Problem{Workloads: s.wls, Machines: s.machines, Disk: s.disk}
}

// newSession mirrors the part of server.handleRegister between the
// decoded request and the solve: conversions, options, NewFleet.
func newSession(req server.RegisterRequest) (*session, error) {
	s := &session{req: req}
	if len(req.DiskProfile) > 0 {
		dp, err := model.LoadProfile(bytes.NewReader(req.DiskProfile))
		if err != nil {
			return nil, err
		}
		s.disk = dp
	}
	if req.AutoMachines == nil {
		return nil, fmt.Errorf("fleet %q: the mirror handles auto_machines registrations only", req.ID)
	}
	s.machines = autoMachines(req.AutoMachines)
	var err error
	if s.wls, err = toWorkloads(req.Workloads, s.disk != nil); err != nil {
		return nil, err
	}
	// server.toFleetOptions, for the options the generator sets.
	s.solve = kairos.DefaultOptions()
	s.solve.SkipDirect = !req.Options.FullSolve
	s.resolve = kairos.DefaultResolveOptions()
	s.resolve.SkipDirect = true
	s.driftCfg = drift.Config{Threshold: 0.04, Cooldown: 1}
	opts := []kairos.FleetOption{
		kairos.WithSolveOptions(s.solve),
		kairos.WithResolveOptions(s.resolve),
		kairos.WithDrift(s.driftCfg),
	}
	if req.Options.Shards > 0 {
		opts = append(opts, kairos.WithShards(req.Options.Shards))
	}
	s.fleet, err = kairos.NewFleet(kairos.FleetSpec{Name: req.ID, Workloads: s.wls, Machines: s.machines, Disk: s.disk}, opts...)
	return s, err
}

// coldSolve runs the solve the session's registration asks for, straight
// on internal/core — what Fleet.Consolidate calls underneath.
func (s *session) coldSolve(ctx context.Context) (*core.Solution, error) {
	if n := s.req.Options.Shards; n > 0 {
		return core.SolveSharded(ctx, s.problem(), core.ShardOptions{Shards: n, Options: s.solve})
	}
	return core.Solve(ctx, s.problem(), s.solve)
}

// driftSamples mirrors kairos.driftSamples: a window in the detector's
// observation form.
func driftSamples(wls []kairos.Workload) []drift.Sample {
	out := make([]drift.Sample, len(wls))
	for i, w := range wls {
		out[i] = drift.Sample{Workload: w.Name, CPU: w.CPU, RAM: w.RAMBytes, Disk: w.UpdateRate}
	}
	return out
}

// forecast mirrors kairos.forecastWorkloads for windows that list the
// same workloads in the same order, which the generator's always do:
// every series becomes the element-wise mean over the history.
func forecast(history [][]kairos.Workload) ([]kairos.Workload, error) {
	latest := history[len(history)-1]
	out := make([]kairos.Workload, len(latest))
	for i, w := range latest {
		fc := w
		for _, get := range []func(*kairos.Workload) **series.Series{
			func(w *kairos.Workload) **series.Series { return &w.CPU },
			func(w *kairos.Workload) **series.Series { return &w.RAMBytes },
			func(w *kairos.Workload) **series.Series { return &w.WSBytes },
			func(w *kairos.Workload) **series.Series { return &w.UpdateRate },
		} {
			if *get(&w) == nil {
				continue
			}
			windows := make([]*series.Series, len(history))
			for h := range history {
				windows[h] = *get(&history[h][i])
			}
			m, err := predict.MeanOfWindows(windows)
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", w.Name, err)
			}
			*get(&fc) = m
		}
		out[i] = fc
	}
	return out, nil
}

// snapshotPayload mirrors server.snapshot for one fleet: the bytes a
// journal snapshot of the session would hold.
func snapshotPayload(s *session, cp *kairos.FleetCheckpoint) ([]byte, error) {
	fs := server.FleetSnapshot{
		Request:   &s.req,
		Incumbent: cp.Incumbent,
		Baseline:  fromWorkloads(cp.Baseline),
		Detector:  server.DetectorWire{Windows: cp.Windows, Armed: cp.Armed, Cooldown: cp.Cooldown},
	}
	for _, h := range cp.History {
		fs.History = append(fs.History, fromWorkloads(h))
	}
	return json.Marshal(server.SnapshotWire{Fleets: []server.FleetSnapshot{fs}})
}
