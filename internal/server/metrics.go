package server

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"kairos/internal/journal"
)

// fleetMetrics is one fleet's /metrics counters, kept in its session: the
// holder of the fleet's turn adds to them and a scrape reads them without
// it. The text format is hand-rolled on purpose — the repo takes no
// dependencies, and the scrape format is a stable plain-text contract.
type fleetMetrics struct {
	windows      atomic.Int64
	ingestErrors atomic.Int64
	triggers     atomic.Int64
	fevals       atomic.Int64
	migrations   atomic.Int64
	// decodedWaiting counts the windows that waited for the fleet's turn
	// and had decoded by the time they took it: a second collector's
	// window that did not idle behind the first one's decode.
	decodedWaiting atomic.Int64
	// resolveNanos and buckets are kairos_resolve_duration_seconds: the
	// summed latency and one count per bucket, the last for re-solves past
	// every bound. Counts are kept per bucket, not cumulative, and summed
	// when written, so every scrape has monotonic buckets whose +Inf is its
	// _count, whatever window it races.
	resolveNanos atomic.Int64
	buckets      [len(resolveBuckets) + 1]atomic.Int64
}

// resolveBuckets are the histogram upper bounds (seconds) for re-solve
// latency; chosen to straddle the observed range from sub-100ms synthetic
// fleets to multi-second 197-server warm re-solves.
var resolveBuckets = [...]float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// observeWindow counts one ingested window (or one rejected one).
func (m *fleetMetrics) observeWindow(err bool) {
	if err {
		m.ingestErrors.Add(1)
		return
	}
	m.windows.Add(1)
}

// observeTrigger counts one drift-triggered re-solve and its cost.
func (m *fleetMetrics) observeTrigger(fevals, migrations int, elapsed time.Duration) {
	m.triggers.Add(1)
	m.fevals.Add(int64(fevals))
	m.migrations.Add(int64(migrations))
	m.resolveNanos.Add(int64(elapsed))
	b := 0
	for b < len(resolveBuckets) && elapsed.Seconds() > resolveBuckets[b] {
		b++
	}
	m.buckets[b].Add(1)
}

// labelValue escapes a label value as the text exposition format defines
// it: a backslash, a double quote and a line feed are escaped, and every
// other character is written as it is. Go's %q would write escapes such as
// \t or \u200b that the format does not have, and a scraper would refuse
// the whole page for one fleet id.
var labelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace

// writeFleetMetrics renders the registry gauge and every fleet's series in
// Prometheus text exposition format, in the order sessions are listed.
func writeFleetMetrics(w io.Writer, sessions []*session) {
	fmt.Fprintf(w, "# HELP kairos_fleets Registered fleets.\n# TYPE kairos_fleets gauge\nkairos_fleets %d\n", len(sessions))
	family := func(name, kind, help string, get func(*session) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, sess := range sessions {
			fmt.Fprintf(w, "%s{fleet=\"%s\"} %d\n", name, labelValue(sess.id), get(sess))
		}
	}
	family("kairos_windows_ingested_total", "counter", "Observation windows ingested.",
		func(sess *session) int64 { return sess.met.windows.Load() })
	family("kairos_ingest_errors_total", "counter", "Observation windows rejected.",
		func(sess *session) int64 { return sess.met.ingestErrors.Load() })
	family("kairos_triggers_total", "counter", "Drift-triggered re-solves.",
		func(sess *session) int64 { return sess.met.triggers.Load() })
	family("kairos_resolve_fevals_total", "counter", "Objective evaluations spent in triggered re-solves.",
		func(sess *session) int64 { return sess.met.fevals.Load() })
	family("kairos_migrations_total", "counter", "Units migrated by triggered re-solves.",
		func(sess *session) int64 { return sess.met.migrations.Load() })
	family("kairos_windows_decoded_waiting_total", "counter", "Observation windows that decoded while they waited for the fleet's turn.",
		func(sess *session) int64 { return sess.met.decodedWaiting.Load() })
	family("kairos_resolve_failures_consecutive", "gauge", "Consecutive failed re-solves (drives the solver backoff).",
		func(sess *session) int64 { return sess.failures.Load() })

	const hist = "kairos_resolve_duration_seconds"
	fmt.Fprintf(w, "# HELP %s Triggered re-solve latency.\n# TYPE %s histogram\n", hist, hist)
	for _, sess := range sessions {
		id := labelValue(sess.id)
		var n int64
		for i, le := range resolveBuckets {
			n += sess.met.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{fleet=\"%s\",le=\"%g\"} %d\n", hist, id, le, n)
		}
		n += sess.met.buckets[len(resolveBuckets)].Load()
		fmt.Fprintf(w, "%s_bucket{fleet=\"%s\",le=\"+Inf\"} %d\n", hist, id, n)
		fmt.Fprintf(w, "%s_sum{fleet=\"%s\"} %g\n", hist, id, time.Duration(sess.met.resolveNanos.Load()).Seconds())
		fmt.Fprintf(w, "%s_count{fleet=\"%s\"} %d\n", hist, id, n)
	}
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
