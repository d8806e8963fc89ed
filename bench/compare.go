package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"kairos/bench/stats"
	"kairos/internal/floats"
)

// spec is BENCHMARK.json: the contract between this program and whoever
// judges a change with it. The bounds and directions -compare and
// -selfcheck apply come from here and nowhere else.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the checkout's root.
func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s has direction %q", m.Name, m.Better)
		}
	}
	return &s, nil
}

// runRecord is one stored run.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Result   result  `json:"result"`
}

// resultSet is a results file: the runs of one side of a comparison.
type resultSet struct {
	Runs []runRecord `json:"runs"`
}

func (s *resultSet) add(r *run) {
	trace := 0
	if r.tr != nil {
		trace = 1
	}
	s.Runs = append(s.Runs, runRecord{Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: trace, Result: r.result()})
}

func (s *resultSet) save(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadResults(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's values over a workload's untraced runs,
// and the workload's failed and attempted operations.
func (s *resultSet) values(workload, metric string) (v []float64, failed, attempted int) {
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		failed += r.Result.Failed
		attempted += r.Result.Attempted
		if m, ok := r.Result.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v, failed, attempted
}

// compareSets prints one row per workload × end-to-end metric with the
// verdict of the metric's own bound and direction, and a row per
// workload for the failed fraction. With symmetric set, a metric also
// regresses when the old side is worse than the new by more than the
// bound: two sets of runs of one build must agree in both directions.
// It returns how many rows regressed.
func compareSets(w io.Writer, sp *spec, old, now *resultSet, symmetric bool) int {
	regressed := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			higher := m.Better == "higher"
			ov, _, _ := old.values(wl.Name, m.Name)
			nv, _, _ := now.values(wl.Name, m.Name)
			verdict := stats.Compare(ov, nv, m.Bound, higher)
			if symmetric && verdict != stats.Regressed && stats.Compare(nv, ov, m.Bound, higher) == stats.Regressed {
				verdict = stats.Regressed
			}
			if verdict == stats.Regressed {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %8.2f%% %6.0f%%  %s (n=%d/%d)\n", wl.Name, m.Name,
				stats.Median(ov), stats.Median(nv), 100*stats.Worsening(stats.Median(ov), stats.Median(nv), higher),
				100*m.Bound, verdict, len(ov), len(nv))
		}
		_, of, oa := old.values(wl.Name, "")
		_, nf, na := now.values(wl.Name, "")
		oldFrac, newFrac := frac(of, oa), frac(nf, na)
		verdict := stats.Resolved
		if newFrac > oldFrac || na == 0 {
			verdict = stats.Regressed
			regressed++
		}
		fmt.Fprintf(w, "%-14s %-18s %14.6f %14.6f %9s %7s  %s (%d/%d, %d/%d failed)\n", wl.Name, "failed_frac",
			oldFrac, newFrac, "", "0%", verdict, of, oa, nf, na)
	}
	return regressed
}

func frac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareMain is `-compare old.json new.json`.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare wants two result files: old.json new.json")
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sp, err := loadSpec(filepath.Dir(wd))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	old, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	now, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if n := compareSets(os.Stdout, sp, old, now, false); n > 0 {
		fmt.Printf("%d rows regressed\n", n)
		return 1
	}
	return 0
}

// selfcheckRuns is how many runs of each workload a side of -selfcheck
// makes: enough for a median.
const selfcheckRuns = 3

// runSet runs every workload selfcheckRuns times untraced, with seeds
// seed, seed+1, …, and returns the results.
func runSet(ctx context.Context, e *env, o *options) (*resultSet, error) {
	set := &resultSet{}
	for _, w := range workloadNames {
		for i := 0; i < selfcheckRuns; i++ {
			r := &run{env: e, workload: w, seed: o.seed + int64(i), seconds: o.seconds, quick: o.quick}
			if err := r.execute(ctx); err != nil {
				r.report(os.Stdout)
				return nil, fmt.Errorf("%s seed %d: %w", w, r.seed, err)
			}
			r.report(os.Stdout)
			set.add(r)
		}
	}
	return set, nil
}

// selfcheckMain is `-selfcheck`: two sets of runs of this build, on the
// same seeds, must agree within the benchmark's own bounds on every
// workload × end-to-end metric, with no failed operation; machines_k and
// the trigger metrics, which depend on the seeded inputs alone, must
// repeat exactly, run for run.
func selfcheckMain(ctx context.Context, e *env, o *options) int {
	sp, err := loadSpec(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sets [2]*resultSet
	for i := range sets {
		if sets[i], err = runSet(ctx, e, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := sets[i].save(filepath.Join(e.out, fmt.Sprintf("selfcheck-%c.json", 'a'+i))); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	bad := compareSets(os.Stdout, sp, sets[0], sets[1], true)
	for i, a := range sets[0].Runs {
		b := sets[1].Runs[i]
		for _, name := range []string{"machines_k", "trigger_precision", "trigger_recall"} {
			if !floats.Same(a.Result.Metrics[name].Value, b.Result.Metrics[name].Value) {
				fmt.Printf("%s seed %d: %s read %v, then %v\n", a.Workload, a.Seed, name, a.Result.Metrics[name].Value, b.Result.Metrics[name].Value)
				bad++
			}
		}
		if a.Result.Failed+b.Result.Failed > 0 {
			fmt.Printf("%s seed %d: %d operations failed\n", a.Workload, a.Seed, a.Result.Failed+b.Result.Failed)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: the two sets disagree in %d places\n", bad)
		return 1
	}
	fmt.Println("selfcheck: the two sets agree")
	return 0
}
