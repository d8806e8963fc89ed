package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"kairos/internal/journal"
)

// metrics is a minimal Prometheus text-format registry: per-fleet counters
// for the control plane's hot numbers plus a latency histogram for the
// triggered re-solves. Hand-rolled on purpose — the repo takes no
// dependencies, and the scrape format is a stable plain-text contract.
type metrics struct {
	mu sync.Mutex
	// perFleet maps fleet ID -> counter set.
	perFleet map[string]*fleetMetrics // guarded by mu
	fleets   int                      // guarded by mu
}

// resolveBuckets are the histogram upper bounds (seconds) for re-solve
// latency; chosen to straddle the observed range from sub-100ms synthetic
// fleets to multi-second 197-server warm re-solves.
var resolveBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// fleetMetrics is one fleet's counter set.
type fleetMetrics struct {
	windows      int64
	ingestErrors int64
	triggers     int64
	fevals       int64
	migrations   int64
	// failStreak is the consecutive-failure gauge behind the fleet's
	// solver backoff (reset to 0 by a re-solve that advances).
	failStreak int64
	// histogram state for kairos_resolve_duration_seconds.
	bucketCounts []int64
	resolveSum   time.Duration
	resolveCount int64
}

func newMetrics() *metrics {
	return &metrics{perFleet: map[string]*fleetMetrics{}}
}

// fleetLocked returns (creating if needed) the counter set for id.
// Callers hold m.mu — the Locked suffix is the lockguard exemption.
func (m *metrics) fleetLocked(id string) *fleetMetrics {
	fm := m.perFleet[id]
	if fm == nil {
		fm = &fleetMetrics{bucketCounts: make([]int64, len(resolveBuckets))}
		m.perFleet[id] = fm
	}
	return fm
}

// setFleets records the current registry size (a gauge).
func (m *metrics) setFleets(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fleets = n
}

// observeWindow counts one ingested window (or one rejected one).
func (m *metrics) observeWindow(id string, err bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fm := m.fleetLocked(id)
	if err {
		fm.ingestErrors++
		return
	}
	fm.windows++
}

// setResolveFailures records a fleet's consecutive re-solve failure count
// (a gauge; 0 clears it).
func (m *metrics) setResolveFailures(id string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fleetLocked(id).failStreak = int64(n)
}

// observeTrigger counts one drift-triggered re-solve and its cost.
func (m *metrics) observeTrigger(id string, fevals, migrations int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fm := m.fleetLocked(id)
	fm.triggers++
	fm.fevals += int64(fevals)
	fm.migrations += int64(migrations)
	sec := elapsed.Seconds()
	fm.resolveSum += elapsed
	fm.resolveCount++
	for i, le := range resolveBuckets {
		if sec <= le {
			fm.bucketCounts[i]++
		}
	}
}

// write renders the registry in Prometheus text exposition format, fleets
// in sorted order so scrapes are deterministic.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP kairos_fleets Registered fleets.\n# TYPE kairos_fleets gauge\nkairos_fleets %d\n", m.fleets)
	ids := make([]string, 0, len(m.perFleet))
	for id := range m.perFleet {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	counter := func(name, help string, get func(*fleetMetrics) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, id := range ids {
			fmt.Fprintf(w, "%s{fleet=%q} %d\n", name, id, get(m.perFleet[id]))
		}
	}
	counter("kairos_windows_ingested_total", "Observation windows ingested.",
		func(fm *fleetMetrics) int64 { return fm.windows })
	counter("kairos_ingest_errors_total", "Observation windows rejected.",
		func(fm *fleetMetrics) int64 { return fm.ingestErrors })
	counter("kairos_triggers_total", "Drift-triggered re-solves.",
		func(fm *fleetMetrics) int64 { return fm.triggers })
	counter("kairos_resolve_fevals_total", "Objective evaluations spent in triggered re-solves.",
		func(fm *fleetMetrics) int64 { return fm.fevals })
	counter("kairos_migrations_total", "Units migrated by triggered re-solves.",
		func(fm *fleetMetrics) int64 { return fm.migrations })

	const gauge = "kairos_resolve_failures_consecutive"
	fmt.Fprintf(w, "# HELP %s Consecutive failed re-solves (drives the solver backoff).\n# TYPE %s gauge\n", gauge, gauge)
	for _, id := range ids {
		fmt.Fprintf(w, "%s{fleet=%q} %d\n", gauge, id, m.perFleet[id].failStreak)
	}

	const hist = "kairos_resolve_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Triggered re-solve latency.\n# TYPE %s histogram\n", hist, hist)
	for _, id := range ids {
		fm := m.perFleet[id]
		for i, le := range resolveBuckets {
			fmt.Fprintf(w, "%s_bucket{fleet=%q,le=%q} %d\n", hist, id, trimFloat(le), fm.bucketCounts[i])
		}
		fmt.Fprintf(w, "%s_bucket{fleet=%q,le=\"+Inf\"} %d\n", hist, id, fm.resolveCount)
		fmt.Fprintf(w, "%s_sum{fleet=%q} %g\n", hist, id, fm.resolveSum.Seconds())
		fmt.Fprintf(w, "%s_count{fleet=%q} %d\n", hist, id, fm.resolveCount)
	}
}

// trimFloat renders a bucket bound the way Prometheus conventionally does
// (no trailing zeros).
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// writeJournalMetrics renders the durability metrics: journal counters
// from the write-ahead log plus the last recovery's summary.
func writeJournalMetrics(w io.Writer, st journal.Stats, rec *RecoveryStats) {
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	c("kairos_journal_appends_total", "Journal records appended.", st.Appends)
	c("kairos_journal_syncs_total", "Journal fsync calls.", st.Syncs)
	c("kairos_journal_snapshots_total", "Journal snapshot rotations.", st.Snapshots)
	g("kairos_journal_size_bytes", "Journal file size.", st.SizeBytes)
	g("kairos_journal_seq", "Last assigned journal sequence number.", int64(st.Seq))
	if rec == nil {
		return
	}
	g("kairos_recovery_fleets", "Fleets rebuilt by the last journal replay.", int64(rec.Fleets))
	g("kairos_recovery_windows_replayed", "Window records replayed by the last recovery.", int64(rec.Windows))
	g("kairos_recovery_advances_replayed", "Advance records replayed by the last recovery.", int64(rec.Advances))
	g("kairos_recovery_rearms_replayed", "Rearm records replayed by the last recovery.", int64(rec.Rearms))
	g("kairos_recovery_triggers_healed", "Dangling triggers re-armed by the last recovery.", int64(rec.Healed))
	torn := int64(0)
	if rec.TornTail {
		torn = 1
	}
	g("kairos_recovery_torn_tail", "Whether the last recovery truncated a torn journal tail.", torn)
	g("kairos_recovery_snapshot_bytes", "Size of the snapshot the last recovery restored.", int64(rec.SnapshotBytes))
	seconds := func(name, help string, d time.Duration) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, d.Seconds())
	}
	seconds("kairos_recovery_snapshot_decode_seconds", "Time the last recovery spent decoding its snapshot.", rec.SnapshotDecode)
	seconds("kairos_recovery_duration_seconds", "Duration of the last journal replay.", rec.Elapsed)
	seconds("kairos_recovery_journal_read_seconds", "Time the last recovery spent reading and checksumming the snapshot file, before the replay.", rec.JournalRead)
	seconds("kairos_recovery_records_decode_seconds", "Time the last recovery spent reading, checksumming and decoding journal records, summed over its decode workers.", rec.RecordsDecode)
}
