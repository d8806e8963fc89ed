package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"kairos/bench/stats"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json holds
// the same names with each end-to-end metric's bound and direction;
// TestSpecMatchesProgram keeps the two in step.
type metricDef struct {
	name, unit string
}

// End-to-end metrics: what an operator of the control plane sees. Every
// workload reports every one; "op" is the workload's own operation (see
// the workload table in README.md), and "norm" marks a timing divided by
// the run's speed factor (ref.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_norm_ms", "ms"},
	{"ops_per_norm_s", "1/s"},
	{"machines_k", "machines"},
	{"stable_frac", "fraction"},
	{"trigger_precision", "fraction"},
	{"trigger_recall", "fraction"},
}

// workloadNames lists the workloads in the order `all` runs them.
var workloadNames = []string{"steady-ingest", "drift-storm", "cold-register", "crash-recover"}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// fullSeconds is the --seconds the workloads' operation counts
// (workloads.go) are sized for: BENCHMARK.json's run_seconds.
const fullSeconds = 25

// run is one execution of one workload: its inputs' seed, its budget,
// and what it has counted and measured so far.
type run struct {
	env      *env
	workload string
	seed     int64
	// seconds scales the timed phase's operation counts (see count).
	seconds float64
	// quick shrinks the fleets for the smoke test.
	quick bool
	// tr records spans in a traced run; nil with tracing off.
	tr *tracer
	// ref is the reference kernel the run's timings are normalised by.
	ref reference

	mu        sync.Mutex
	attempted int       // guarded by mu
	failed    int       // guarded by mu
	failures  []string  // guarded by mu; the first few, for the report
	refMs     []float64 // guarded by mu; the reference kernel's samples

	values map[string]value
	// notes are per-case details printed under the metric table (K per
	// case, secondary latencies).
	notes []string
}

// op counts one attempted operation and, when err is not nil, its
// failure. It returns whether the operation succeeded.
func (r *run) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// set records a metric.
func (r *run) set(name string, v float64, n int) {
	r.values[name] = value{v, n}
}

// note adds a detail line to the report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets up; setup_s is their median.
func (r *run) setupReps() int {
	if r.tr != nil {
		return 1 // the traced run does not report setup_s
	}
	return 3
}

// setupRefs is how many samples of the reference kernel follow each
// set-up: setup_s is normalised by their median, as the timed phase is
// by its own samples, because a set-up is seconds away from them. They
// are samples of the in-memory kernel whatever the workload: a set-up
// writes one record to a journal at most.
const setupRefs = 3

// setups runs one set-up `setupReps` times, tears down all but the last
// and records the median duration, divided by the speed factor of those
// seconds, as setup_s. A set-up is everything between the built binary
// and the first timed request: generating and encoding the inputs from
// the seed, starting the daemon, and the initial registration where the
// workload has one.
func setups[T interface{ teardown() }](r *run, one func() (T, error)) (T, error) {
	var kept T
	var took, refMs []float64
	var kernel reference
	for i, reps := 0, r.setupReps(); i < reps; i++ {
		t0 := time.Now()
		st, err := one()
		if err != nil {
			return kept, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		took = append(took, time.Since(t0).Seconds())
		for k := 0; k < setupRefs; k++ {
			d, err := kernel.time()
			if err != nil {
				return kept, fmt.Errorf("reference kernel: %w", err)
			}
			refMs = append(refMs, d)
		}
		if i < reps-1 {
			st.teardown()
			continue
		}
		kept = st
	}
	f := kernel.factor(refMs)
	r.set("setup_s", stats.Median(took)/f, len(took))
	r.note("raw: set-up median = %.4f s (n=%d), speed factor %.3f over %d samples", stats.Median(took), len(took), f, len(refMs))
	return kept, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setOps records the timing metrics of a timed phase from its samples:
// opMs are the operation's latencies and rates are throughput samples
// (operations per second at one ack or over one cycle of the phase). Both
// metrics are medians, not means: on a shared machine whose speed shifts
// for seconds at a time, the median of many short samples stays with the
// majority phase where a mean follows every slow stretch.
//
// The tail — the highest percentile with ten samples beyond it, or the
// upper quartile where the run is too short for one — is printed with
// every report and is trace.op_tail_ms of a traced run, but it is not an
// end-to-end metric: the contract wants a bound of at most 0.25 on each,
// and on the sandbox the benchmark is judged on no tail of a run this
// long repeats within that, normalised or not (README.md, "Noise").
func (r *run) setOps(opMs, rates []float64) {
	pct, ok := stats.TailPercentile(len(opMs))
	if !ok {
		pct = 75
	}
	r.setTimings(stats.Median(opMs), stats.Percentile(opMs, pct), pct, stats.Median(rates), len(opMs), len(rates))
}

// setTimings books a timed phase's raw timings — for the report's notes
// and a traced run's trace.* — and, divided by the run's speed factor,
// its two end-to-end timing metrics.
func (r *run) setTimings(p50Ms, tailMs, tailPct, rate float64, n, nRates int) {
	f, nRef := r.speed()
	r.set("op_p50_norm_ms", p50Ms/f, n)
	r.set("ops_per_norm_s", rate*f, nRates)
	r.set("raw.op_p50_ms", p50Ms, n)
	r.set("raw.op_tail_ms", tailMs, n)
	r.set("raw.speed_factor", f, nRef)
	r.note("raw: op p50 = %.3f ms, tail p%g = %.3f ms (n=%d), %.4f ops/s (n=%d)", p50Ms, tailPct, tailMs, n, rate, nRates)
	r.note("speed factor %.3f: the reference kernel took %.3f ms at the median of %d samples, nominally %.1f ms", f, f*r.ref.nominalMs(), nRef, r.ref.nominalMs())
}

// quality records the plan-quality metrics next to the timings they
// were bought with.
type quality struct {
	// ks is the machine count of every plan the run was served.
	ks []float64
	// migrated and resolved count units moved by, and units covered by,
	// the triggered re-solves.
	migrated, resolved int
	// episodes, hits: drift episodes sent and those that fired on their
	// first window. triggers, early: triggers seen and those on an
	// episode's first two windows.
	episodes, hits, triggers, early int
}

func (r *run) setQuality(q *quality) {
	r.set("machines_k", sum(q.ks), len(q.ks))
	stable := 1.0
	if q.resolved > 0 {
		stable = 1 - float64(q.migrated)/float64(q.resolved)
	}
	r.set("stable_frac", stable, q.resolved)
	precision, recall := 1.0, 1.0
	if q.triggers > 0 {
		precision = float64(q.early) / float64(q.triggers)
	}
	if q.episodes > 0 {
		recall = float64(q.hits) / float64(q.episodes)
	}
	r.set("trigger_precision", precision, q.triggers)
	r.set("trigger_recall", recall, q.episodes)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// count scales an operation count sized for fullSeconds to the run's
// --seconds. A run's counts depend on nothing else — not on how fast the
// machine is — so the plans a run is served, and with them machines_k,
// stable_frac and the trigger metrics, are the same on every machine.
// There is always one operation: the smoke test runs with 0 seconds.
func (r *run) count(full int) int {
	return max(1, int(math.Round(float64(full)*r.seconds/fullSeconds)))
}

// execute runs the workload with tracing on or off and reports whether
// every operation succeeded.
func (r *run) execute(ctx context.Context) error {
	r.values = map[string]value{}
	if r.tr != nil {
		return r.traced(ctx)
	}
	return r.againstDaemon(ctx)
}

// againstDaemon runs the workload's timed phase against a real daemon.
func (r *run) againstDaemon(ctx context.Context) error {
	switch r.workload {
	case "steady-ingest":
		return r.steadyIngest(ctx)
	case "drift-storm":
		return r.driftStorm(ctx)
	case "cold-register":
		return r.coldRegister(ctx)
	case "crash-recover":
		return r.crashRecover(ctx)
	}
	return fmt.Errorf("unknown workload %q (want one of %v)", r.workload, workloadNames)
}

// defs returns the metrics this run reports.
func (r *run) defs() []metricDef {
	if r.tr != nil {
		return perLayer
	}
	return endToEnd
}

// report prints every metric by name with its unit and sample count,
// then the details and failures.
func (r *run) report(w io.Writer) {
	mode := "end-to-end, tracing off"
	if r.tr != nil {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs, %s)\n", r.workload, r.seed, r.seconds, mode)
	for _, d := range r.defs() {
		v := r.values[d.name]
		fmt.Fprintf(w, "  %-34s %14.4f %-9s n=%d\n", d.name, v.v, d.unit, v.n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  - %s\n", n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  ! %s\n", f)
	}
}

// result is the run in the form the driver reads and -compare stores.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) result() result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range r.defs() {
		res.Metrics[d.name] = metric{Value: r.values[d.name].v, Unit: d.unit}
	}
	return res
}
