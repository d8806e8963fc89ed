// Command kairoslint is the repo's static-analysis multichecker: it runs
// the internal/lint analyzer suite — the per-package checks (ctxflow,
// errflow, floatdet, lockguard, wirejson) and the call-graph-backed
// whole-program check lockorder — over the named package patterns and
// exits non-zero on any finding. Run it from the module root:
//
//	go run ./cmd/kairoslint ./...
//
// `make lint` and the CI lint job do exactly that. Suppress a single
// finding with a //kairoslint:allow <analyzer>: <reason> comment on its
// line — the reason is mandatory, a waiver without one is itself a
// finding. The annotation conventions the analyzers enforce are
// documented in CONTRIBUTING.md.
//
// -json emits findings as a JSON array ({analyzer, file, line, col,
// message}) for tooling; CI's problem matcher consumes the default
// text form. -budget fails the run (exit 3) when load + analysis
// exceed the given wall-clock duration, keeping the lint gate's latency
// a tested property. -v splits it into `go list -export` (build work,
// nearly none after `go vet ./...`), type-checking and analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	lint "kairos/internal/lint"
	"kairos/internal/lint/driver"
)

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	verbose := flag.Bool("v", false, "report go list / type-check / analysis wall-clock to stderr")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	budget := flag.Duration("budget", 0, "fail (exit 3) if load+analysis exceed this wall-clock duration")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: kairoslint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	listing, err := driver.List(patterns)
	exitOn(err)
	listed := time.Now()
	prog, err := listing.Check()
	exitOn(err)
	loaded := time.Now()
	diags, err := driver.Run(prog, lint.Analyzers())
	exitOn(err)
	elapsed := time.Since(start)
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	if *verbose {
		fmt.Fprintf(os.Stderr, "kairoslint: go list -export %v, %d packages type-checked in %v, analyzed in %v (total %v)\n",
			ms(listed.Sub(start)), len(prog.Packages), ms(loaded.Sub(listed)), ms(time.Since(loaded)), ms(elapsed))
	}
	if *jsonOut {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		exitOn(enc.Encode(findings))
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "kairoslint: wall clock %v exceeded budget %v\n", ms(elapsed), *budget)
		os.Exit(3)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// exitOn reports a load, analysis or output error and exits 2.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kairoslint:", err)
		os.Exit(2)
	}
}
