// Package server is the Kairos control plane: a long-running HTTP service
// (stdlib net/http, versioned /v1/ JSON API) that registers fleets, ingests
// observation windows from concurrent collectors, applies each fleet's
// windows one at a time under the fleet's turn around a kairos.Fleet
// session handle — drift-triggered warm re-solves, exactly the library's
// Observe semantics — and serves plan,
// drift-status and event queries plus Prometheus-text metrics. It is what
// `kairos serve` runs.
//
// API summary (all bodies JSON):
//
//	POST   /v1/fleets               register a fleet (workloads+machines+options)
//	GET    /v1/fleets               list registered fleets
//	GET    /v1/fleets/{id}          one fleet's status (plan K, drift, windows)
//	DELETE /v1/fleets/{id}          deregister the fleet
//	POST   /v1/fleets/{id}/windows  ingest one observation window
//	GET    /v1/fleets/{id}/plan     the current plan (assignments, loads)
//	GET    /v1/fleets/{id}/events   the re-consolidation event log
//	GET    /metrics                 Prometheus text-format metrics
//	GET    /healthz                 liveness probe
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"kairos"
	"kairos/internal/drift"
	"kairos/internal/fleet"
	"kairos/internal/model"
	"kairos/internal/series"
)

// WorkloadWire is one workload's resource profile on the wire. Series are
// plain sample arrays sharing the workload's start/step; all arrays of one
// workload must have equal length.
type WorkloadWire struct {
	Name string `json:"name"`
	// StartUnix is the Unix-seconds timestamp of the first sample
	// (optional; series alignment is positional, not by wall clock).
	StartUnix int64 `json:"start_unix,omitempty"`
	// StepSeconds is the sampling interval. Defaults to 300 (the paper's
	// 5-minute windows) when omitted. It is taken to the nearest
	// nanosecond; a step refused with 400 is one that is not positive
	// there (below 0.5 ns), one beyond about 292 years, and one whose
	// nanoseconds, written back in seconds by a snapshot, would not
	// convert to the same step again.
	StepSeconds float64 `json:"step_seconds,omitempty"`
	// CPU is utilization as a fraction of the target machine; required.
	CPU []float64 `json:"cpu"`
	// RAMBytes is the working-set memory requirement; required.
	RAMBytes []float64 `json:"ram_bytes"`
	// WSBytes is the working set driving the disk model (defaults to
	// RAMBytes when a disk profile is present and it is omitted).
	WSBytes []float64 `json:"ws_bytes,omitempty"`
	// UpdateRate is the row-modification rate (rows/sec).
	UpdateRate []float64 `json:"update_rate,omitempty"`
	// DiskWriteBps is the measured standalone disk write rate.
	DiskWriteBps []float64 `json:"disk_write_bps,omitempty"`
	// Replicas places this many copies on distinct machines (0 = 1, at
	// most maxReplicas). A window's is ignored: placement comes from the
	// registration.
	Replicas int `json:"replicas,omitempty"`
	// PinTo pins the first replica to a machine index (omitted = free). A
	// window's is ignored, as Replicas is.
	PinTo *int `json:"pin_to,omitempty"`
}

// MachineWire is one consolidation target on the wire.
type MachineWire struct {
	Name         string  `json:"name,omitempty"`
	CPUCapacity  float64 `json:"cpu_capacity"`
	RAMBytes     float64 `json:"ram_bytes"`
	DiskWriteBps float64 `json:"disk_write_bps,omitempty"`
	Headroom     float64 `json:"headroom,omitempty"`
}

// AutoMachines is shorthand for a homogeneous target fleet: Count copies
// (at most maxMachines) of the paper's standard 12-core/96GB machine.
type AutoMachines struct {
	Count int `json:"count"`
	// DiskWriteBps is the per-machine disk write budget (0 =
	// fleet.TargetDiskWriteBps).
	DiskWriteBps float64 `json:"disk_write_bps,omitempty"`
	// Headroom is the per-machine safety margin (0 = fleet.TargetHeadroom).
	Headroom float64 `json:"headroom,omitempty"`
}

// OptionsWire are the registration-time knobs: a flat projection of the
// library's functional options. A "workers" key, which earlier releases
// took, is accepted and ignored: the solver's parallelism is the daemon's
// CPU budget (internal/cpu), not a tenant's setting. So is a retired
// "rearm" key.
type OptionsWire struct {
	// FullSolve enables the global DIRECT run for the initial solve. The
	// server default is the local-search path (SkipDirect), which is what
	// fleet-scale streams use.
	FullSolve bool `json:"full_solve,omitempty"`
	// Shards > 1 solves the initial plan with the sharded fleet engine in
	// that many shards; 1 or less, or machines of more than one capacity
	// class, solves it unsharded.
	Shards int `json:"shards,omitempty"`
	// DriftThreshold is the relative drift that triggers a re-solve
	// (0 = drift.DefaultConfig's; a negative one is refused).
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// Cooldown is the number of windows suppressed after a re-solve
	// commits (absent = drift.DefaultConfig's).
	Cooldown *int `json:"cooldown,omitempty"`
	// History is the number of windows averaged into the rolling forecast
	// (0 = drift.DefaultConfig's, at most maxHistory).
	History int `json:"history,omitempty"`
	// MinWorkloads is the drifted-workload quorum for a trigger.
	MinWorkloads int `json:"min_workloads,omitempty"`
	// MigrationWeight prices warm-re-solve migrations (absent =
	// kairos.DefaultResolveOptions').
	MigrationWeight *float64 `json:"migration_weight,omitempty"`
	// MaxMigrations caps units migrated per re-solve (0 = unlimited).
	MaxMigrations int `json:"max_migrations,omitempty"`
}

// RegisterRequest is the POST /v1/fleets body.
type RegisterRequest struct {
	// ID names the fleet; path segments address it, so it must be
	// non-empty and contain no '/'.
	ID        string         `json:"id"`
	Workloads []WorkloadWire `json:"workloads"`
	// Machines lists explicit targets; AutoMachines is the homogeneous
	// shorthand. Exactly one must be provided.
	Machines     []MachineWire   `json:"machines,omitempty"`
	AutoMachines *AutoMachines   `json:"auto_machines,omitempty"`
	DiskProfile  json.RawMessage `json:"disk_profile,omitempty"`
	Options      OptionsWire     `json:"options,omitempty"`
}

// WindowRequest is the POST /v1/fleets/{id}/windows body: one observation
// window, matched to the registered workloads by name.
type WindowRequest struct {
	Workloads []WorkloadWire `json:"workloads"`
}

// WindowResponse acknowledges an ingested window once it has been
// journaled and applied under its fleet's turn.
type WindowResponse struct {
	// Window is the 0-based index the window was consumed as.
	Window int `json:"window"`
	// Triggered reports whether this window's trigger advanced the plan (a
	// trigger the solver's backoff suppressed, or whose re-solve failed,
	// advanced nothing).
	Triggered bool `json:"triggered"`
	// Duplicate marks an idempotent resend: the window (keyed by its
	// start_unix) was already acked and this response echoes the original
	// acknowledgement without re-applying it.
	Duplicate bool `json:"duplicate,omitempty"`
	// Event is the re-consolidation event when Triggered (summary form).
	Event *EventWire `json:"event,omitempty"`
}

// FleetStatus is the GET /v1/fleets/{id} response (and the list entry).
type FleetStatus struct {
	ID        string `json:"id"`
	Workloads int    `json:"workloads"`
	Machines  int    `json:"machines"`
	// K and Feasible describe the current plan.
	K        int  `json:"k"`
	Feasible bool `json:"feasible"`
	// Windows, Triggers and LastTrigger summarize the monitoring state.
	Windows     int `json:"windows"`
	Triggers    int `json:"triggers"`
	LastTrigger int `json:"last_trigger"`
}

// PlanWire is the GET /v1/fleets/{id}/plan response.
//
// A restarted daemon rebuilds the plan from its durable incumbent without
// solving. K, feasible, the objective and the assignments survive a
// restart bit for bit. Fevals, elapsed_ms, migrated and migration_cost
// describe the solve this process ran: after a restart they read 1, 0, 0
// and 0.
type PlanWire struct {
	K         int     `json:"k"`
	Feasible  bool    `json:"feasible"`
	Objective float64 `json:"objective"`
	// Assignments maps each placement unit to its machine.
	Assignments []AssignmentWire `json:"assignments"`
	// Migrated/MigrationCost report the churn of warm re-solves.
	Migrated      int     `json:"migrated,omitempty"`
	MigrationCost float64 `json:"migration_cost,omitempty"`
	Fevals        int     `json:"fevals"`
	ElapsedMs     float64 `json:"elapsed_ms"`
}

// AssignmentWire is one unit's placement.
type AssignmentWire struct {
	Unit     string `json:"unit"`
	Workload string `json:"workload"`
	Replica  int    `json:"replica,omitempty"`
	Machine  int    `json:"machine"`
	// MachineName is the target machine's name when it has one.
	MachineName string `json:"machine_name,omitempty"`
}

// EventWire is one re-consolidation event in the GET events response.
type EventWire struct {
	Window int `json:"window"`
	// Trigger is the drift evidence rendered as the detector reports it.
	Trigger string `json:"trigger"`
	// MaxDrift is the largest cause's relative drift.
	MaxDrift float64 `json:"max_drift"`
	// DriftedWorkloads counts distinct workloads past the threshold.
	DriftedWorkloads int `json:"drifted_workloads"`
	K                int `json:"k"`
	Migrated         int `json:"migrated"`
	// Objective/StaleObjective/ObjectiveDelta price the new plan vs
	// keeping the old one on the forecast series.
	StaleObjective float64 `json:"stale_objective"`
	Objective      float64 `json:"objective"`
	ObjectiveDelta float64 `json:"objective_delta"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// RecordWire is one journal record of the durable control plane: exactly
// one operation field is set. Every control-plane mutation — registering
// a fleet, acking an observation window, advancing the incumbent plan,
// deregistering — has a record type here and one apply function in
// server.go that the live path and recovery.go's replay both call (the
// CONTRIBUTING convention for new mutations). Rearm is a retired kind.
type RecordWire struct {
	Register   *RegisterRecord   `json:"register,omitempty"`
	Window     *WindowRecord     `json:"window,omitempty"`
	Advance    *AdvanceRecord    `json:"advance,omitempty"`
	Rearm      *RearmRecord      `json:"rearm,omitempty"`
	Deregister *DeregisterRecord `json:"deregister,omitempty"`
}

// RegisterRecord journals one fleet registration: the request as received
// plus the incumbent the registration-time solve produced, so replay
// rebuilds the session without re-solving.
type RegisterRecord struct {
	Request *RegisterRequest `json:"request"`
	// Incumbent is the initial plan in durable form.
	Incumbent *kairos.Incumbent `json:"incumbent"`
}

// WindowRecord journals one acked observation window, verbatim as it
// arrived on the wire: the live server never marshals one, the journal
// frames the received bytes of the workloads value between the fleet's
// windowHead and windowTail. It is written before the window is applied
// (and before it is acked), so every acked window survives a crash.
type WindowRecord struct {
	Fleet     string         `json:"fleet"`
	Workloads []WorkloadWire `json:"workloads"`
}

// AdvanceRecord journals one incumbent-plan advance. The window handler
// holding the fleet's turn writes it after the triggered re-solve succeeds
// but before the plan is committed or published (between Fleet.Resolve and
// Fleet.Advance), so a recovered server never serves an older plan than
// one it already published.
type AdvanceRecord struct {
	Fleet string `json:"fleet"`
	// Incumbent is the advanced plan in durable form.
	Incumbent *kairos.Incumbent `json:"incumbent"`
	// Event is the published event, for the recovered event log.
	Event *EventWire `json:"event"`
}

// RearmRecord is a retired kind: no server writes one, and replay reads
// one, from an older state dir, as nothing.
type RearmRecord struct {
	Fleet string `json:"fleet"`
}

// DeregisterRecord journals a fleet removal.
type DeregisterRecord struct {
	Fleet string `json:"fleet"`
}

// SnapshotWire is the compacted control-plane state a journal snapshot
// holds: everything replay needs without the journal prefix it replaces.
type SnapshotWire struct {
	Fleets []FleetSnapshot `json:"fleets"`
}

// FleetSnapshot is one fleet's durable state inside a snapshot.
type FleetSnapshot struct {
	// Request is the registration request, replayed structurally (machine
	// lists, options, disk profile) without re-solving.
	Request *RegisterRequest `json:"request"`
	// Incumbent is the current plan in durable form.
	Incumbent *kairos.Incumbent `json:"incumbent"`
	// Baseline is the workload set the detector's assumptions came from
	// (empty until a trigger commits: the spec itself is the baseline).
	Baseline []WorkloadWire `json:"baseline,omitempty"`
	// History is the retained observation windows, oldest first.
	History [][]WorkloadWire `json:"history,omitempty"`
	// Detector is the drift detector's counter state.
	Detector DetectorWire `json:"detector"`
	// Events is the fleet's re-consolidation event log.
	Events []*EventWire `json:"events,omitempty"`
	// Acks is the idempotent-ingest ring as the session holds it: the acks
	// of the last ackRingSize stamped windows, in arrival order, so a
	// collector retrying across the restart gets its original
	// acknowledgement instead of a duplicate apply.
	Acks []AckWire `json:"acks,omitempty"`
	// Failures is the fleet's consecutive re-solve failure count.
	Failures int `json:"failures,omitempty"`
}

// DetectorWire is the drift detector's checkpointed counter state. Armed
// is always written true and never read: the detector has no disarmed
// state, and the field keeps snapshots byte-compatible.
type DetectorWire struct {
	Windows  int  `json:"windows"`
	Armed    bool `json:"armed"`
	Cooldown int  `json:"cooldown"`
}

// AckWire is one acked window in the idempotent-ingest ring.
type AckWire struct {
	// StartUnix keys the window (the retry contract: collectors that set
	// start_unix may resend a window and get the original ack back).
	StartUnix int64 `json:"start_unix"`
	// Window and Triggered echo the original WindowResponse.
	Window    int  `json:"window"`
	Triggered bool `json:"triggered"`
}

// Three registration fields size the work by value, not by body bytes.
// maxMachines caps auto_machines.count at the most machines an explicit
// list of the shortest valid ones carries under maxBodyBytes, so both forms
// share one ceiling; maxReplicas caps a workload's replicas. maxHistory
// caps options.history, the windows every snapshot copies and every
// forecast averages: a month of daily windows, where the paper averages
// two weeks.
const (
	maxMachines = maxBodyBytes / len(`{"cpu_capacity":1,"ram_bytes":1},`)
	maxReplicas = 16
	maxHistory  = 32
)

// checkRegister refuses a registration whose id a path cannot address,
// that is past those caps, or whose drift options the detector would
// refuse, before anything is allocated or journaled for it.
func checkRegister(req *RegisterRequest) error {
	if req.ID == "" || strings.ContainsAny(req.ID, "/ ") {
		return fmt.Errorf("fleet id must be non-empty without '/' or spaces, got %q", req.ID)
	}
	if am := req.AutoMachines; am != nil && am.Count > maxMachines {
		return fmt.Errorf("auto_machines.count %d exceeds %d", am.Count, maxMachines)
	}
	if h := req.Options.History; h > maxHistory {
		return fmt.Errorf("options.history %d exceeds %d", h, maxHistory)
	}
	if th := req.Options.DriftThreshold; th < 0 {
		return fmt.Errorf("options.drift_threshold %v is negative", th)
	}
	if err := driftConfig(req.Options).Validate(); err != nil {
		return fmt.Errorf("options: %w", err)
	}
	for _, w := range req.Workloads {
		if w.Replicas > maxReplicas {
			return fmt.Errorf("workload %q: replicas %d exceeds %d", w.Name, w.Replicas, maxReplicas)
		}
	}
	return nil
}

// toWorkloads converts wire workloads into consolidation workloads.
// needDisk forces WSBytes (defaulted from RAMBytes) and UpdateRate so the
// result is usable with a disk profile. The series adopt the wire's sample
// slices instead of copying them: every caller hands over slices it has
// just decoded, and nothing writes a workload's series in place
// (CONTRIBUTING), so a registration's request and its fleet may share
// them.
func toWorkloads(ws []WorkloadWire, needDisk bool) ([]kairos.Workload, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("no workloads")
	}
	out := make([]kairos.Workload, len(ws))
	for i, w := range ws {
		if w.Name == "" {
			return nil, fmt.Errorf("workload %d has no name", i)
		}
		step := w.StepSeconds
		if step == 0 {
			step = 300
		}
		dt, ok := stepDuration(step)
		if !ok {
			return nil, fmt.Errorf("workload %q: step_seconds %v must round to a positive number of nanoseconds that a snapshot writes back unchanged", w.Name, w.StepSeconds)
		}
		if len(w.CPU) == 0 || len(w.RAMBytes) == 0 {
			return nil, fmt.Errorf("workload %q: cpu and ram_bytes series are required", w.Name)
		}
		start := time.Unix(w.StartUnix, 0).UTC()
		mk := func(vals []float64) *series.Series {
			if len(vals) == 0 {
				return nil
			}
			return series.New(start, dt, vals)
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
		if w.PinTo != nil {
			wl.PinTo = *w.PinTo
		}
		if needDisk {
			if wl.WSBytes == nil {
				wl.WSBytes = wl.RAMBytes.Clone()
			}
			if wl.UpdateRate == nil {
				return nil, fmt.Errorf("workload %q: update_rate is required when the fleet has a disk profile", w.Name)
			}
		}
		out[i] = wl
	}
	return out, nil
}

// stepDuration converts a wire step to the nearest nanosecond. It refuses
// a step that is not positive there, and one whose write-back, the
// snapshot's Duration.Seconds, would not convert to the same duration.
func stepDuration(seconds float64) (time.Duration, bool) {
	ns := math.Round(seconds * float64(time.Second))
	if !(ns >= 1 && ns < math.MaxInt64) {
		return 0, false
	}
	dt := time.Duration(ns)
	return dt, time.Duration(math.Round(dt.Seconds()*float64(time.Second))) == dt
}

// toMachines resolves the explicit machine list or the AutoMachines
// shorthand into consolidation targets.
func toMachines(req *RegisterRequest) ([]kairos.Machine, error) {
	switch {
	case len(req.Machines) > 0 && req.AutoMachines != nil:
		return nil, fmt.Errorf("machines and auto_machines are mutually exclusive")
	case len(req.Machines) > 0:
		out := make([]kairos.Machine, len(req.Machines))
		for i, m := range req.Machines {
			name := m.Name
			if name == "" {
				name = fmt.Sprintf("machine-%02d", i)
			}
			out[i] = kairos.Machine{
				Name:         name,
				CPUCapacity:  kairos.TargetCPU(m.CPUCapacity),
				RAMBytes:     kairos.Bytes(m.RAMBytes),
				DiskWriteBps: kairos.Bps(m.DiskWriteBps),
				Headroom:     kairos.Frac(m.Headroom),
			}
		}
		return out, nil
	case req.AutoMachines != nil:
		am := req.AutoMachines
		if am.Count <= 0 {
			return nil, fmt.Errorf("auto_machines.count must be positive")
		}
		disk := kairos.Bps(am.DiskWriteBps)
		if disk == 0 {
			disk = fleet.TargetDiskWriteBps
		}
		headroom := kairos.Frac(am.Headroom)
		if headroom == 0 {
			headroom = fleet.TargetHeadroom
		}
		out := make([]kairos.Machine, am.Count)
		for i := range out {
			out[i] = fleet.TargetMachine(fmt.Sprintf("target-%02d", i), disk, headroom)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("either machines or auto_machines is required")
	}
}

// toFleetOptions maps the wire options onto the library's functional
// options.
func toFleetOptions(o OptionsWire) []kairos.FleetOption {
	solve := kairos.DefaultOptions()
	solve.SkipDirect = !o.FullSolve
	resolve := kairos.DefaultResolveOptions()
	if o.MigrationWeight != nil {
		resolve.MigrationWeight = *o.MigrationWeight
	}
	resolve.MaxMigrations = o.MaxMigrations
	opts := []kairos.FleetOption{
		kairos.WithSolveOptions(solve),
		kairos.WithResolveOptions(resolve),
		kairos.WithDrift(driftConfig(o)),
	}
	if o.Shards > 0 {
		opts = append(opts, kairos.WithShards(o.Shards))
	}
	return opts
}

// driftConfig is the detector configuration o asks for. A negative
// threshold, journaled before checkRegister refused it, takes the default.
// History and MinWorkloads go through as given, so that Validate sees a
// negative one; a 0 takes WithDefaults' value.
func driftConfig(o OptionsWire) kairos.DriftConfig {
	cfg := drift.DefaultConfig()
	cfg.History, cfg.MinWorkloads = o.History, o.MinWorkloads
	if o.DriftThreshold > 0 {
		cfg.Threshold = o.DriftThreshold
	}
	if o.Cooldown != nil {
		cfg.Cooldown = *o.Cooldown
	}
	return cfg
}

// toDiskProfile parses the raw registration disk-profile JSON (the format
// `kairos profile-disk` writes), or returns nil when absent.
func toDiskProfile(raw json.RawMessage) (*model.DiskProfile, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	dp, err := model.LoadProfile(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return dp, nil
}

// fromWorkloads is toWorkloads' inverse: it renders library workloads
// back into wire form for snapshots, preserving start/step so the
// round-trip through toWorkloads reproduces identical series. The wire
// form refers to the series' samples rather than copying them: nothing
// writes a series in place (CONTRIBUTING), and a snapshot is marshalled at
// once.
func fromWorkloads(wls []kairos.Workload) []WorkloadWire {
	vals := func(s *series.Series) []float64 {
		if s == nil {
			return nil
		}
		return s.Values
	}
	out := make([]WorkloadWire, len(wls))
	for i, w := range wls {
		ww := WorkloadWire{
			Name:         w.Name,
			StartUnix:    w.CPU.Start.Unix(),
			StepSeconds:  w.CPU.Step.Seconds(),
			CPU:          vals(w.CPU),
			RAMBytes:     vals(w.RAMBytes),
			WSBytes:      vals(w.WSBytes),
			UpdateRate:   vals(w.UpdateRate),
			DiskWriteBps: vals(w.DiskWriteBps),
			Replicas:     w.Replicas,
		}
		if w.PinTo >= 0 {
			pin := w.PinTo
			ww.PinTo = &pin
		}
		out[i] = ww
	}
	return out
}

// fromHistory renders checkpointed observation windows for a snapshot.
func fromHistory(history [][]kairos.Workload) [][]WorkloadWire {
	out := make([][]WorkloadWire, len(history))
	for i, w := range history {
		out[i] = fromWorkloads(w)
	}
	return out
}

// toHistory is fromHistory's inverse.
func toHistory(history [][]WorkloadWire, needDisk bool) ([][]kairos.Workload, error) {
	out := make([][]kairos.Workload, len(history))
	for i, w := range history {
		wls, err := toWorkloads(w, needDisk)
		if err != nil {
			return nil, fmt.Errorf("history window %d: %w", i, err)
		}
		out[i] = wls
	}
	return out, nil
}

// planWire renders a plan for the wire, naming each assignment's workload
// and machine as the plan's incumbent form records them.
func planWire(p *kairos.Plan) *PlanWire {
	out := &PlanWire{
		K:             p.K,
		Feasible:      p.Feasible,
		Objective:     p.Objective,
		Migrated:      p.Migrated,
		MigrationCost: p.MigrationCost,
		Fevals:        p.Fevals,
		ElapsedMs:     float64(p.Elapsed.Microseconds()) / 1e3,
		Assignments:   make([]AssignmentWire, len(p.Assign)),
	}
	for i, u := range p.Incumbent().Units {
		out.Assignments[i] = AssignmentWire{
			Unit: p.Names[i], Workload: u.Workload, Replica: u.Replica,
			Machine: u.Machine, MachineName: u.MachineName,
		}
	}
	return out
}

// eventWire renders a re-consolidation event for the wire.
func eventWire(ev *kairos.ReconsolidationEvent) *EventWire {
	out := &EventWire{
		Window:         ev.Window,
		K:              ev.Plan.K,
		Migrated:       ev.Plan.Migrated,
		StaleObjective: ev.StaleObjective,
		Objective:      ev.Plan.Objective,
		ObjectiveDelta: ev.ObjectiveDelta,
	}
	if ev.Trigger != nil {
		out.Trigger = ev.Trigger.String()
		out.MaxDrift = ev.Trigger.MaxDrift
		out.DriftedWorkloads = ev.Trigger.Workloads
	}
	return out
}
