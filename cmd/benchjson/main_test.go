package main

import (
	"strings"
	"testing"

	"kairos/internal/floats"
)

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkCoarseScreenedSweep/screened-16         \t      10\t  15015811 ns/op\t      2098 fevals\t         6.061 sweep-speedup\t       0 B/op\t       0 allocs/op"
	r, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "BenchmarkCoarseScreenedSweep/screened-16" {
		t.Fatalf("name = %q", r.Name)
	}
	if r.Iterations != 10 {
		t.Fatalf("iterations = %d", r.Iterations)
	}
	want := map[string]float64{
		"ns/op": 15015811, "fevals": 2098, "sweep-speedup": 6.061, "B/op": 0, "allocs/op": 0,
	}
	for unit, v := range want {
		if got := r.Metrics[unit]; !floats.Same(got, v) {
			t.Fatalf("metric %q = %v, want %v", unit, got, v)
		}
	}
}

func TestParseBenchLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  \tkairos\t1.2s",
		"BenchmarkBroken",
		"BenchmarkBroken notanumber",
		"--- BENCH: BenchmarkX",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Fatalf("line %q parsed as a result", line)
		}
	}
}

func TestHeaderLine(t *testing.T) {
	k, v, ok := headerLine("cpu: Intel(R) Xeon(R) Processor @ 2.70GHz")
	if !ok || k != "cpu" || v != "Intel(R) Xeon(R) Processor @ 2.70GHz" {
		t.Fatalf("got %q/%q/%v", k, v, ok)
	}
	if _, _, ok := headerLine("PASS"); ok {
		t.Fatal("PASS recognized as header")
	}
}

func TestCompareDocs(t *testing.T) {
	res := func(name string, metrics map[string]float64) Result {
		return Result{Name: name, Pkg: "kairos/internal/core", Iterations: 1, Metrics: metrics}
	}
	old := Doc{Results: []Result{
		res("BenchmarkColdSolveALL197", map[string]float64{"ns/op": 2e8, "fevals": 489261, "priced": 96880, "probes": 3, "machines": 16, "skipped-frac": 0.3}),
		res("BenchmarkGreedyPackALL197", map[string]float64{"ns/op": 3e6, "machines": 19}),
	}}
	for _, tc := range []struct {
		name  string
		cur   Doc
		worse bool
		want  string // a substring of some report line
	}{
		// Slower, and an ungated ratio moved: neither is a count.
		{"same counts", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"ns/op": 9e8, "fevals": 489261, "priced": 96880, "probes": 3, "machines": 16, "skipped-frac": 0.1}),
			res("BenchmarkGreedyPackALL197", map[string]float64{"ns/op": 3e6, "machines": 19}),
		}}, false, "fevals 489261"},
		{"fevals rose", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"ns/op": 1e8, "fevals": 1062784, "priced": 96880, "probes": 3, "machines": 16}),
			res("BenchmarkGreedyPackALL197", map[string]float64{"machines": 19}),
		}}, true, "fevals rose 489261 -> 1.062784e+06"},
		{"fevals fell", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"fevals": 400000, "priced": 96880, "probes": 3, "machines": 16}),
			res("BenchmarkGreedyPackALL197", map[string]float64{"machines": 19}),
		}}, false, "re-capture"},
		// The screen pruning less shows as exact pricings, with fevals (the
		// candidates considered) where they were.
		{"priced rose", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"fevals": 489261, "priced": 200000, "probes": 3, "machines": 16}),
			res("BenchmarkGreedyPackALL197", map[string]float64{"machines": 19}),
		}}, true, "priced rose 96880 -> 200000"},
		{"priced missing", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"fevals": 489261, "probes": 3, "machines": 16}),
			res("BenchmarkGreedyPackALL197", map[string]float64{"machines": 19}),
		}}, true, "priced missing"},
		{"benchmark missing", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"fevals": 489261, "priced": 96880, "probes": 3, "machines": 16}),
		}}, true, "BenchmarkGreedyPackALL197: missing"},
		{"metric missing", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"fevals": 489261, "priced": 96880, "machines": 16}),
			res("BenchmarkGreedyPackALL197", map[string]float64{"machines": 19}),
		}}, true, "probes missing"},
		// A new allocs/op column the baseline does not carry is not gated.
		{"extra metric", Doc{Results: []Result{
			res("BenchmarkColdSolveALL197", map[string]float64{"fevals": 489261, "priced": 96880, "probes": 3, "machines": 16, "allocs/op": 1e9}),
			res("BenchmarkGreedyPackALL197", map[string]float64{"machines": 19}),
		}}, false, "machines 19"},
	} {
		lines, worse := compareDocs(old, tc.cur)
		if worse != tc.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", tc.name, worse, tc.worse, strings.Join(lines, "\n"))
		}
		if !strings.Contains(strings.Join(lines, "\n"), tc.want) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.want, strings.Join(lines, "\n"))
		}
	}

	// The DIRECT solves carry Eval's own count: a reuse table that forgets
	// shows there, with fevals (the samples DIRECT asked for) where they were.
	direct := func(metrics map[string]float64) Doc {
		return Doc{Results: []Result{res("BenchmarkColdSolveSecondLife97Direct", metrics)}}
	}
	old = direct(map[string]float64{"fevals": 85195, "eval-priced": 2867, "machines": 11})
	for _, tc := range []struct {
		cur   Doc
		worse bool
		want  string
	}{
		{direct(map[string]float64{"fevals": 85195, "eval-priced": 2867, "machines": 11}), false, "eval-priced 2867"},
		{direct(map[string]float64{"fevals": 85195, "eval-priced": 5356, "machines": 11}), true, "eval-priced rose 2867 -> 5356"},
		{direct(map[string]float64{"fevals": 85195, "machines": 11}), true, "eval-priced missing"},
	} {
		lines, worse := compareDocs(old, tc.cur)
		if report := strings.Join(lines, "\n"); worse != tc.worse || !strings.Contains(report, tc.want) {
			t.Errorf("worse = %v, want %v and a line with %q:\n%s", worse, tc.worse, tc.want, report)
		}
	}

	// The local-search solves carry the candidates that reached the staged
	// screen: a capacity stage that stops deciding shows there, with every
	// other count where it was.
	local := func(metrics map[string]float64) Doc {
		return Doc{Results: []Result{res("BenchmarkColdSolveALL197", metrics)}}
	}
	old = local(map[string]float64{"fevals": 489261, "priced": 12352, "screened": 184197, "machines": 16})
	for _, tc := range []struct {
		cur   Doc
		worse bool
		want  string
	}{
		{local(map[string]float64{"fevals": 489261, "priced": 12352, "screened": 184197, "machines": 16}), false, "screened 184197"},
		{local(map[string]float64{"fevals": 489261, "priced": 12352, "screened": 489261, "machines": 16}), true, "screened rose 184197 -> 489261"},
		{local(map[string]float64{"fevals": 489261, "priced": 12352, "machines": 16}), true, "screened missing"},
	} {
		lines, worse := compareDocs(old, tc.cur)
		if report := strings.Join(lines, "\n"); worse != tc.worse || !strings.Contains(report, tc.want) {
			t.Errorf("worse = %v, want %v and a line with %q:\n%s", worse, tc.worse, tc.want, report)
		}
	}

	// The scenario ledger carries the plans it left infeasible, the units
	// they moved and their objective sum: a re-solve that gives up a fleet,
	// churns more of it or packs it worse shows there with Σ K where it was.
	matrix := func(metrics map[string]float64) Doc {
		return Doc{Results: []Result{res("BenchmarkResolveMatrix/warm/ALL", metrics)}}
	}
	old = matrix(map[string]float64{"machines": 286, "infeasible": 0, "migrated": 176, "fevals": 1005132, "objective": 506.68859})
	for _, tc := range []struct {
		cur   Doc
		worse bool
		want  string
	}{
		{matrix(map[string]float64{"machines": 286, "infeasible": 0, "migrated": 176, "fevals": 1005132, "objective": 506.3}), false, "infeasible 0"},
		{matrix(map[string]float64{"machines": 286, "infeasible": 1, "migrated": 176, "fevals": 1005132, "objective": 506.3}), true, "infeasible rose 0 -> 1"},
		{matrix(map[string]float64{"machines": 286, "infeasible": 0, "migrated": 190, "fevals": 1005132, "objective": 506.3}), true, "migrated rose 176 -> 190"},
		{matrix(map[string]float64{"machines": 286, "infeasible": 0, "migrated": 176, "fevals": 1005132, "objective": 507.1}), true, "objective rose 506.68859 -> 507.1"},
		{matrix(map[string]float64{"machines": 286, "infeasible": 0, "migrated": 176, "fevals": 1005132}), true, "objective missing"},
	} {
		lines, worse := compareDocs(old, tc.cur)
		if report := strings.Join(lines, "\n"); worse != tc.worse || !strings.Contains(report, tc.want) {
			t.Errorf("worse = %v, want %v and a line with %q:\n%s", worse, tc.worse, tc.want, report)
		}
	}

	// The wire decoders carry the numbers they handed to strconv, where a
	// committed 0 fails on the first one, and the samples they converted
	// rather than copied, which rise when the copy stops firing.
	window := func(metrics map[string]float64) Doc {
		return Doc{Results: []Result{res("BenchmarkDecodeWindow197/fast", metrics)}}
	}
	old = window(map[string]float64{"allocs/op": 1003, "slow-numbers": 0, "parsed-numbers": 113866})
	for _, tc := range []struct {
		cur   Doc
		worse bool
		want  string
	}{
		{window(map[string]float64{"allocs/op": 1003, "slow-numbers": 0, "parsed-numbers": 113866}), false, "slow-numbers 0"},
		{window(map[string]float64{"allocs/op": 1003, "slow-numbers": 1, "parsed-numbers": 113866}), true, "slow-numbers rose 0 -> 1"},
		{window(map[string]float64{"allocs/op": 1003, "parsed-numbers": 113866}), true, "slow-numbers missing"},
		{window(map[string]float64{"allocs/op": 1003, "slow-numbers": 0, "parsed-numbers": 113866}), false, "parsed-numbers 113866"},
		{window(map[string]float64{"allocs/op": 1003, "slow-numbers": 0, "parsed-numbers": 226944}), true, "parsed-numbers rose 113866 -> 226944"},
		{window(map[string]float64{"allocs/op": 1003, "slow-numbers": 0}), true, "parsed-numbers missing"},
	} {
		lines, worse := compareDocs(old, tc.cur)
		if report := strings.Join(lines, "\n"); worse != tc.worse || !strings.Contains(report, tc.want) {
			t.Errorf("worse = %v, want %v and a line with %q:\n%s", worse, tc.worse, tc.want, report)
		}
	}

	// An ingest carries the bytes it allocates: a body read into a fresh
	// buffer, or a record copied before the journal frames it, adds
	// megabytes.
	ingest := func(metrics map[string]float64) Doc {
		return Doc{Results: []Result{res("BenchmarkIngestWindow197/durable", metrics)}}
	}
	old = ingest(map[string]float64{"B/op": 2.18e6, "allocs/op": 1900})
	for _, tc := range []struct {
		cur   Doc
		worse bool
		want  string
	}{
		{ingest(map[string]float64{"B/op": 2177816, "allocs/op": 1842}), false, "B/op fell"},
		{ingest(map[string]float64{"B/op": 15410344, "allocs/op": 1842}), true, "B/op rose 2.18e+06 -> 1.5410344e+07"},
		{ingest(map[string]float64{"allocs/op": 1842}), true, "B/op missing"},
	} {
		lines, worse := compareDocs(old, tc.cur)
		if report := strings.Join(lines, "\n"); worse != tc.worse || !strings.Contains(report, tc.want) {
			t.Errorf("worse = %v, want %v and a line with %q:\n%s", worse, tc.worse, tc.want, report)
		}
	}
}
