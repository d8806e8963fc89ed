// Package gen builds the benchmark's inputs: every request body the load
// generator sends, made from the repository's fixed synthetic fleets
// (internal/fleet, the paper's four datasets) and a seed. The seed drives
// only what the benchmark varies — measurement noise, drift states and
// per-round perturbations — so the same seed gives byte-identical bodies
// and the daemon only ever sees generated inputs.
//
// Window bodies are encoded once, during set-up, with a fixed-width
// start_unix in every workload; Stamp rewrites those digits in place, so
// the generator sends a unique, idempotency-keyed window without
// re-marshalling two megabytes of JSON per request.
package gen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/model"
	"kairos/internal/polyfit"
	"kairos/internal/server"
)

const (
	// QuietNoise is the per-workload scale noise of a quiet window: the
	// measurement jitter the drift detector must ignore (the level
	// BenchmarkDriftWatch uses).
	QuietNoise = 0.004
	// DriftSpread bounds a drift state's per-workload multiplier to
	// 1±DriftSpread. A step between two states is then at most 6.2%,
	// which fires the 4% threshold, and its residual against the
	// forecast the re-solve rebases on (the midpoint) is at most 3.1%,
	// which does not fire it again.
	DriftSpread = 0.03
	// Movers is how many workloads alternate between the two extremes of
	// the drift range on successive states, so that every step is
	// guaranteed to cross the threshold whatever the seed draws.
	Movers = 10
	// RoundSpread is the per-round perturbation of a cold-register fleet.
	RoundSpread = 0.03

	// stampPlaceholder is the start_unix every workload is encoded with;
	// Stamp overwrites its ten digits.
	stampPlaceholder = 1000000000
	// StampBase is the first start_unix the load generator stamps;
	// window i of a run is StampBase + 300·i.
	StampBase = 1700000000
	// ramScale is the paper's RAM scaling for historical statistics.
	ramScale = 0.7
)

// stampKey is the encoded field Stamp looks for.
var stampKey = []byte(`"start_unix":` + "1000000000")

// rng returns the generator for one purpose of one seed, so that the
// inputs of one workload do not depend on how many draws another made.
func rng(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

// wire renders library workloads in wire form with every series of
// workload i scaled by factors[i] (nil = unscaled). withDisk adds the
// disk model's inputs (ws_bytes, update_rate).
func wire(wls []core.Workload, factors []float64, withDisk bool) []server.WorkloadWire {
	out := make([]server.WorkloadWire, len(wls))
	for i, w := range wls {
		f := 1.0
		if factors != nil {
			f = factors[i]
		}
		scaled := func(s []float64) []float64 {
			v := make([]float64, len(s))
			for j, x := range s {
				v[j] = x * f
			}
			return v
		}
		out[i] = server.WorkloadWire{
			Name:        w.Name,
			StartUnix:   stampPlaceholder,
			StepSeconds: w.CPU.Step.Seconds(),
			CPU:         scaled(w.CPU.Values),
			RAMBytes:    scaled(w.RAMBytes.Values),
		}
		if withDisk {
			out[i].WSBytes = scaled(w.WSBytes.Values)
			out[i].UpdateRate = scaled(w.UpdateRate.Values)
		}
	}
	return out
}

// factors draws one multiplier in [1-spread, 1+spread] per workload.
func factors(r *rand.Rand, n int, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 + (r.Float64()*2-1)*spread
	}
	return out
}

// streamFleet is the fleet the three streaming workloads register: the
// paper's 197-server ALL dataset, or Internal's 25 servers for -quick.
func streamFleet(quick bool) []core.Workload {
	if quick {
		f := fleet.Generate(fleet.Internal)
		return f.Workloads(ramScale)
	}
	f := fleet.All()
	return f.Workloads(ramScale)
}

// Body is one pre-encoded window request whose start_unix fields can be
// rewritten in place.
type Body struct {
	// Bytes is the request body. Stamp mutates it.
	Bytes []byte
	// offsets locate the ten start_unix digits of every workload.
	offsets []int
}

// encodeWindow marshals one observation window and indexes its stamps.
func encodeWindow(wls []server.WorkloadWire) (*Body, error) {
	b, err := json.Marshal(server.WindowRequest{Workloads: wls})
	if err != nil {
		return nil, fmt.Errorf("gen: encoding window: %w", err)
	}
	body := &Body{Bytes: b}
	for at := 0; ; {
		i := bytes.Index(b[at:], stampKey)
		if i < 0 {
			break
		}
		body.offsets = append(body.offsets, at+i+len(stampKey)-10)
		at += i + len(stampKey)
	}
	if len(body.offsets) != len(wls) {
		return nil, fmt.Errorf("gen: found %d start_unix fields for %d workloads", len(body.offsets), len(wls))
	}
	return body, nil
}

// Stamp sets every workload's start_unix to unix, which must have ten
// digits so that the body keeps its length.
func (b *Body) Stamp(unix int64) error {
	var digits [10]byte
	s := strconv.AppendInt(digits[:0], unix, 10)
	if unix < stampPlaceholder || len(s) != 10 {
		return fmt.Errorf("gen: start_unix %d does not have ten digits", unix)
	}
	for _, at := range b.offsets {
		copy(b.Bytes[at:at+10], s)
	}
	return nil
}

// register marshals one registration request with one candidate target
// machine per workload (the paper's homogeneous targets).
func register(id string, wls []server.WorkloadWire, opt server.OptionsWire, disk json.RawMessage) ([]byte, error) {
	b, err := json.Marshal(server.RegisterRequest{
		ID:           id,
		Workloads:    wls,
		AutoMachines: &server.AutoMachines{Count: len(wls)},
		DiskProfile:  disk,
		Options:      opt,
	})
	if err != nil {
		return nil, fmt.Errorf("gen: encoding registration %q: %w", id, err)
	}
	return b, nil
}

// StreamID is the fleet id the streaming workloads register.
const StreamID = "stream"

// Stream is the input of a streaming workload: the registration of the
// stream fleet and the window bodies the collectors cycle through.
type Stream struct {
	// Units is the number of workloads (= placement units) registered.
	Units int
	// Register is the POST /v1/fleets body.
	Register []byte
	// Windows are the pre-encoded window bodies. For Quiet they are
	// noise variants of the registered profiles; for Drift they are the
	// drift states in episode order (state i+1 follows state i, and
	// state 0 follows the last).
	Windows []*Body
}

// Quiet builds the steady-ingest input: `variants` quiet windows, each
// the registered fleet under seeded ±QuietNoise per-workload noise.
func Quiet(seed int64, quick bool, variants int) (*Stream, error) {
	wls := streamFleet(quick)
	r := rng(seed, 1)
	s := &Stream{Units: len(wls)}
	var err error
	if s.Register, err = register(StreamID, wire(wls, nil, false), server.OptionsWire{}, nil); err != nil {
		return nil, err
	}
	for v := 0; v < variants; v++ {
		b, err := encodeWindow(wire(wls, factors(r, len(wls), QuietNoise), false))
		if err != nil {
			return nil, err
		}
		s.Windows = append(s.Windows, b)
	}
	return s, nil
}

// DriftFactors draws the per-workload multipliers of `states` drift
// states (an even number, so the movers also alternate across the
// wrap-around from the last state to the first).
func DriftFactors(seed int64, units, states int) [][]float64 {
	r := rng(seed, 2)
	movers := r.Perm(units)
	if len(movers) > Movers {
		movers = movers[:Movers]
	}
	out := make([][]float64, states)
	for s := range out {
		out[s] = factors(r, units, DriftSpread)
		sign := 1.0
		if s%2 == 1 {
			sign = -1
		}
		for _, m := range movers {
			out[s][m] = 1 + sign*DriftSpread
		}
	}
	return out
}

// Drift builds the drift-storm and crash-recover input: `states` drift
// states of the stream fleet. An episode posts the next state once (the
// drifted window) and then holds it.
func Drift(seed int64, quick bool, states int) (*Stream, error) {
	if states < 2 || states%2 != 0 {
		return nil, fmt.Errorf("gen: %d drift states, want an even number", states)
	}
	wls := streamFleet(quick)
	s := &Stream{Units: len(wls)}
	var err error
	if s.Register, err = register(StreamID, wire(wls, nil, false), server.OptionsWire{}, nil); err != nil {
		return nil, err
	}
	for _, f := range DriftFactors(seed, len(wls), states) {
		b, err := encodeWindow(wire(wls, f, false))
		if err != nil {
			return nil, err
		}
		s.Windows = append(s.Windows, b)
	}
	return s, nil
}

// DiskProfile is the synthetic disk model of the cold-register disk
// case: a degree-2 fit with a saturation envelope (the shape `kairos
// profile-disk` writes), hand-written so that no profiler sweep runs.
// Its coefficients make disk one more constraint the solver prices on
// every evaluation without making it the one that sets K: a dozen of the
// fleet's working sets and update rates fit one machine's 50 MB/s.
func DiskProfile() *model.DiskProfile {
	return &model.DiskProfile{
		Fit:         polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.0002, 0.003, 0, 0, 0}},
		Envelope:    polyfit.Poly1D{Coeffs: []float64{120000, -0.9}},
		HasEnvelope: true,
		WSMinMB:     100,
		WSMaxMB:     100000,
		ConfigName:  "bench-synthetic",
	}
}

// ColdCase is one registration of a cold-register round.
type ColdCase struct {
	// ID is the fleet id, which names the case in the output.
	ID string
	// Units is the number of workloads registered.
	Units int
	// Body is the POST /v1/fleets body.
	Body []byte
}

// coldSpec describes one cold-register case.
type coldSpec struct {
	id   string
	wls  []core.Workload
	opt  server.OptionsWire
	disk bool
}

// coldSpecs lists the cases of a round: the four datasets solved with
// DIRECT, and the ALL fleet by local search, sharded, and with the disk
// model. -quick keeps one case per solver path on the two small fleets.
func coldSpecs(quick bool) []coldSpec {
	set := func(d fleet.Dataset) []core.Workload {
		f := fleet.Generate(d)
		return f.Workloads(ramScale)
	}
	full := server.OptionsWire{FullSolve: true}
	if quick {
		wikia := set(fleet.Wikia)
		return []coldSpec{
			{id: "internal-25-direct", wls: set(fleet.Internal), opt: full},
			{id: "wikia-35-local", wls: wikia},
			{id: "wikia-35-shards2", wls: wikia, opt: server.OptionsWire{Shards: 2}},
			{id: "wikia-35-disk", wls: wikia, disk: true},
		}
	}
	all := streamFleet(false)
	return []coldSpec{
		{id: "internal-25-direct", wls: set(fleet.Internal), opt: full},
		{id: "wikia-35-direct", wls: set(fleet.Wikia), opt: full},
		{id: "wikipedia-40-direct", wls: set(fleet.Wikipedia), opt: full},
		{id: "secondlife-97-direct", wls: set(fleet.SecondLife), opt: full},
		{id: "all-197-local", wls: all},
		{id: "all-197-shards4", wls: all, opt: server.OptionsWire{Shards: 4}},
		{id: "secondlife-97-disk", wls: set(fleet.SecondLife), disk: true},
	}
}

// coldSuite seeds the perturbations of the cold-register rounds. It is a
// constant, not the run's seed: a cold solve's work is chaotic in its
// input — perturbing the ALL-197 fleet by ±0.5% moves its local-search
// solve between 0.7 and 1.5 million evaluations — so rounds drawn afresh
// from every seed made the workload's timings differ by a quarter from
// seed to seed, which no bound the contract allows can gate. Like any
// solver benchmark, cold-register therefore times a fixed suite of
// instances; the seed decides the order in which a run meets them.
const coldSuite = 20110612

// Cold builds the cold-register input: `rounds` rounds, each the cases
// of coldSpecs under a ±RoundSpread per-workload perturbation. The
// perturbations belong to the suite (coldSuite); the seed rotates the
// rounds, so that runs of different seeds meet them in a different order
// (and a run shorter than the suite meets different ones).
func Cold(seed int64, quick bool, rounds int) ([][]ColdCase, error) {
	specs := coldSpecs(quick)
	var profile bytes.Buffer
	if err := DiskProfile().Save(&profile); err != nil {
		return nil, fmt.Errorf("gen: encoding disk profile: %w", err)
	}
	r := rng(coldSuite, 3)
	suite := make([][]ColdCase, rounds)
	for round := range suite {
		for _, sp := range specs {
			var disk json.RawMessage
			if sp.disk {
				disk = profile.Bytes()
			}
			b, err := register(sp.id, wire(sp.wls, factors(r, len(sp.wls), RoundSpread), sp.disk), sp.opt, disk)
			if err != nil {
				return nil, err
			}
			suite[round] = append(suite[round], ColdCase{ID: sp.id, Units: len(sp.wls), Body: b})
		}
	}
	first := int(((seed % int64(rounds)) + int64(rounds)) % int64(rounds))
	return append(suite[first:], suite[:first]...), nil
}
