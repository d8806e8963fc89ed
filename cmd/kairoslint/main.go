// Command kairoslint is the repo's static-analysis multichecker: it runs
// the internal/lint analyzer suite — the per-package checks (errflow,
// floatdet, lockguard, wirejson) and the call-graph-backed whole-program
// checks (ctxflow, leakcheck, lockorder) — over the named package
// patterns and
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
// a tested property.
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
	verbose := flag.Bool("v", false, "report load/analysis wall-clock to stderr")
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
	pkgs, err := driver.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kairoslint:", err)
		os.Exit(2)
	}
	loaded := time.Now()
	diags, err := driver.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "kairoslint:", err)
		os.Exit(2)
	}
	elapsed := time.Since(start)
	if *verbose {
		fmt.Fprintf(os.Stderr, "kairoslint: %d packages loaded in %v, analyzed in %v (total %v)\n",
			len(pkgs),
			loaded.Sub(start).Round(time.Millisecond),
			time.Since(loaded).Round(time.Millisecond),
			elapsed.Round(time.Millisecond))
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
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "kairoslint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "kairoslint: wall clock %v exceeded budget %v\n",
			elapsed.Round(time.Millisecond), *budget)
		os.Exit(3)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
