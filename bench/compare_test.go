package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a small BENCHMARK.json: one metric per direction.
var testSpec = &spec{
	Workloads: []specWorkload{{Name: "steady-ingest"}, {Name: "drift-storm"}},
	EndToEnd: []specMetric{
		{Name: "op_p50_norm_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_per_norm_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	},
}

// synthetic builds a result set with three runs per workload around the
// given values.
func synthetic(p50, rate float64, failed int) *resultSet {
	set := &resultSet{}
	for _, w := range []string{"steady-ingest", "drift-storm"} {
		for i, jitter := range []float64{0.99, 1, 1.01} {
			set.Runs = append(set.Runs, runRecord{Workload: w, Seed: int64(i), Result: result{
				Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{
					"op_p50_norm_ms": {Value: p50 * jitter, Unit: "ms"},
					"ops_per_norm_s": {Value: rate * jitter, Unit: "1/s"},
				},
			}})
		}
	}
	return set
}

func TestCompareSets(t *testing.T) {
	for _, c := range []struct {
		name      string
		old, now  *resultSet
		symmetric bool
		regressed int
		want      string
	}{
		{"identical sets agree", synthetic(50, 20, 0), synthetic(50, 20, 0), false, 0, "resolved"},
		{"a slower median beyond the bound regresses on both workloads", synthetic(50, 20, 0), synthetic(60, 20, 0), false, 2, "regressed"},
		{"a lower rate beyond the bound regresses", synthetic(50, 20, 0), synthetic(50, 15, 0), false, 2, "regressed"},
		{"a gain is not a regression", synthetic(50, 20, 0), synthetic(30, 40, 0), false, 0, "resolved"},
		{"two sets of one build must agree both ways", synthetic(50, 20, 0), synthetic(30, 20, 0), true, 2, "regressed"},
		{"more failed operations regress whatever the timings", synthetic(50, 20, 0), synthetic(50, 20, 1), false, 2, "failed_frac"},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, testSpec, c.old, c.now, c.symmetric); got != c.regressed {
			t.Errorf("%s: %d rows regressed, want %d\n%s", c.name, got, c.regressed, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output does not mention %q\n%s", c.name, c.want, out.String())
		}
		// One row per workload × metric, one failed_frac row per workload,
		// and the header.
		if rows := strings.Count(out.String(), "\n"); rows != 1+2*(2+1) {
			t.Errorf("%s: %d output rows, want 7\n%s", c.name, rows, out.String())
		}
	}
}

// Traced runs carry per-layer metrics, not end-to-end ones; they must
// not enter the comparison.
func TestCompareIgnoresTracedRuns(t *testing.T) {
	old, now := synthetic(50, 20, 0), synthetic(50, 20, 0)
	now.Runs = append(now.Runs, runRecord{Workload: "steady-ingest", Trace: 1, Result: result{Attempted: 10, Failed: 10}})
	var out bytes.Buffer
	if got := compareSets(&out, testSpec, old, now, false); got != 0 {
		t.Errorf("a traced run changed the verdict: %d rows regressed\n%s", got, out.String())
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.json")
	want := synthetic(50, 20, 0)
	if err := want.save(path); err != nil {
		t.Fatal(err)
	}
	got, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(want.Runs) || got.Runs[3].Result.Metrics["op_p50_norm_ms"] != want.Runs[3].Result.Metrics["op_p50_norm_ms"] {
		t.Errorf("a saved result set reads back differently: %+v", got.Runs)
	}
	if _, err := loadResults(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units: the driver refuses a run whose metrics
// differ from the file's.
func TestSpecMatchesProgram(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(filepath.Dir(wd))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		what string
		file []specMetric
		prog []metricDef
	}{{"end_to_end", sp.EndToEnd, endToEnd}, {"per_layer", sp.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", c.what, len(c.file), len(c.prog))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the program", c.what, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s metric in seconds, lower is better")
	}
}
