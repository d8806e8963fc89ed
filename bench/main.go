// Command bench is the Kairos benchmark: it builds ./cmd/kairos, runs a
// real `kairos serve` child on a loopback port, drives it from this one
// process with seeded inputs, checks every answer, and prints end-to-end
// metrics (tracing off) or per-layer metrics (traced). See README.md.
//
//	go run -C bench . --workload steady-ingest --seed 1 --seconds 25 --trace 0
//	go run -C bench .                       # all four workloads, both modes
//	go run -C bench . -compare old.json new.json
//	go run -C bench . -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	selfcheck bool
	compare   bool
	args      []string
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "steady-ingest, drift-storm, cold-register, crash-recover, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", fullSeconds, "length of a run: the operation counts are sized for 25 and scale with it")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and prints the per-layer metrics, 0 the end-to-end metrics")
	fs.BoolVar(&o.quick, "quick", false, "smoke test: small fleets; one operation per workload, except under -selfcheck")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice on this build and compare the two sets")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	return o, nil
}

func realMain(args []string) int {
	o, err := parseFlags(args)
	if err != nil {
		return 2
	}
	if o.compare {
		return compareMain(o.args)
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// SIGINT/SIGTERM cancel the run; the deferred cleanup then kills any
	// daemon still alive and removes its state directory. A second
	// signal is not waited for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer e.cleanup()
	if err := e.build(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if o.selfcheck {
		return selfcheckMain(ctx, e, o)
	}
	if o.quick {
		o.seconds = 0
	}
	if o.workload != "all" {
		r := &run{env: e, workload: o.workload, seed: o.seed, seconds: o.seconds, quick: o.quick}
		if o.trace == 1 {
			r.tr = newTracer()
		}
		return runOne(ctx, r, &resultSet{}, r.workload+".json", true)
	}
	// Every workload, untraced then traced; the gap between a workload's
	// two medians of the same operation is what tracing costs.
	set := &resultSet{}
	code := 0
	for _, w := range workloadNames {
		var untraced float64
		for _, trace := range []bool{false, true} {
			r := &run{env: e, workload: w, seed: o.seed, seconds: o.seconds, quick: o.quick}
			if trace {
				r.tr = newTracer()
			}
			if c := runOne(ctx, r, set, "results.json", false); c != 0 {
				code = c
			}
			if ctx.Err() != nil {
				return 130
			}
			if !trace {
				untraced = r.values["raw.op_p50_ms"].v
			} else if traced := r.values["trace.op_p50_ms"].v; untraced > 0 && traced > 0 {
				fmt.Printf("  tracing overhead on %s: raw op p50 %.3f ms untraced, %.3f ms traced (%+.1f%%)\n",
					w, untraced, traced, 100*(traced-untraced)/untraced)
			}
		}
	}
	return code
}

// runOne executes one run, prints its report, adds it to set and stores
// the set under out/. When last is set it ends standard output with the
// result line the driver reads.
func runOne(ctx context.Context, r *run, set *resultSet, file string, last bool) int {
	traceFile := "trace.json"
	if !last {
		traceFile = "trace." + r.workload + ".json"
	}
	err := r.execute(ctx)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		return 130
	}
	r.report(os.Stdout)
	if err != nil {
		// A run that could not finish has measured nothing to report.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(r.env.out, traceFile)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", traceFile, err)
			return 1
		}
	}
	set.add(r)
	if err := set.save(filepath.Join(r.env.out, file)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := r.result()
	if last {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		return 1
	}
	return 0
}
