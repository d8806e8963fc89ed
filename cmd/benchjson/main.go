// Command benchjson converts `go test -bench` output into machine-readable
// JSON, the input of the count gate below. It reads benchmark output on
// stdin and writes a JSON document to stdout:
//
//	go test -bench='Sweep' -benchmem -benchtime=10x -run='^$' . | benchjson
//
// Every benchmark result line becomes one entry with its iteration count
// and a metrics map (ns/op, B/op, allocs/op, plus any custom metrics such
// as sweep-speedup, fevals or MB/s). Environment header lines (goos,
// goarch, pkg, cpu) are captured as metadata, and each result carries the
// pkg header it was printed under, so one pipeline can hold several
// packages' benchmarks. Lines that are not benchmark results are ignored,
// so the tool can sit at the end of any `go test` pipeline.
//
// With -compare it is a regression gate on work counters instead:
//
//	benchjson -compare BENCH_counts.json new.json
//
// reads two such documents and exits non-zero when, for a benchmark of the
// first, a metric whose unit is a count — fevals, priced, eval-priced,
// probes, machines, infeasible, migrated, allocs/op, B/op, slow-numbers,
// parsed-numbers — or an objective sum is higher in the second, or the
// benchmark or the metric is missing there: numbers that repeat, to the
// last digit or within the spare the baseline leaves, unlike ns/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name, including sub-benchmarks and the
	// -cpu suffix (e.g. "BenchmarkCoarseScreenedSweep/screened-16").
	Name string `json:"name"`
	// Pkg is the package whose benchmark output the line appeared in (the
	// latest "pkg:" header), empty when there was none.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every "<value> <unit>" pair on the
	// line: ns/op, B/op, allocs/op and custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the emitted JSON document.
type Doc struct {
	// Meta holds the environment header lines go test prints (goos,
	// goarch, pkg, cpu) when present; with several packages in the input,
	// the last one's.
	Meta map[string]string `json:"meta,omitempty"`
	// Results lists every parsed benchmark line in input order.
	Results []Result `json:"results"`
}

// countUnits are the metric units -compare gates on: counts of work done,
// which a deterministic solver repeats exactly on any machine, and the
// allocations and bytes allocated per op of the benchmarks that carry them.
// screened is the sweep candidates the screen's capacity stage passed on;
// gap is a cold solve's K above its lower bound; infeasible and migrated are
// the re-solves left infeasible and the units they moved; objective is a
// sum of plans' canonical objectives, deterministic like a count but printed
// to four significant figures, so its baseline carries a spare; slow-numbers
// and parsed-numbers are the samples a wire decoder handed to strconv and
// the samples it converted rather than copied.
var countUnits = [...]string{"fevals", "priced", "screened", "eval-priced", "probes", "machines", "gap", "infeasible", "migrated", "objective", "allocs/op", "B/op", "slow-numbers", "parsed-numbers"}

func main() {
	compare := flag.Bool("compare", false, "compare two benchjson documents (old.json new.json) and fail when a count metric rose")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	doc := Doc{Meta: map[string]string{}, Results: []Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := headerLine(line); ok {
			doc.Meta[k] = v
			continue
		}
		if r, ok := parseBenchLine(line); ok {
			r.Pkg = doc.Meta["pkg"]
			doc.Results = append(doc.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	if len(doc.Meta) == 0 {
		doc.Meta = nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: writing JSON:", err)
		os.Exit(1)
	}
}

// headerLine recognizes the "key: value" environment lines of go test
// benchmark output.
func headerLine(line string) (key, value string, ok bool) {
	for _, k := range [...]string{"goos", "goarch", "pkg", "cpu"} {
		if rest, found := strings.CutPrefix(line, k+":"); found {
			return k, strings.TrimSpace(rest), true
		}
	}
	return "", "", false
}

// parseBenchLine parses one benchmark result line:
//
//	BenchmarkName-16  10  123456 ns/op  42 fevals  0 B/op  0 allocs/op
func parseBenchLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// readDoc loads a document this tool wrote.
func readDoc(path string) (Doc, error) {
	var doc Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// runCompare prints compareDocs' report for the two files and returns the
// exit status: 0 no count rose, 1 one did, 2 a file could not be read.
func runCompare(oldPath, newPath string) int {
	old, err := readDoc(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	cur, err := readDoc(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	lines, worse := compareDocs(old, cur)
	for _, l := range lines {
		fmt.Println(l)
	}
	if worse {
		return 1
	}
	return 0
}

// compareDocs holds every count metric of every benchmark in old against
// cur: one report line per metric, and worse = true when one rose or went
// missing. A count that fell is reported so the baseline gets re-captured,
// but passes. Benchmarks are matched by package and name, so both documents
// must come from the same -cpu setting.
func compareDocs(old, cur Doc) (lines []string, worse bool) {
	key := func(r Result) string { return r.Pkg + " " + r.Name }
	byKey := map[string]Result{}
	for _, r := range cur.Results {
		byKey[key(r)] = r
	}
	for _, o := range old.Results {
		c, found := byKey[key(o)]
		if !found {
			lines = append(lines, fmt.Sprintf("FAIL  %s: missing from the new run", o.Name))
			worse = true
			continue
		}
		for _, unit := range countUnits {
			was, gated := o.Metrics[unit]
			if !gated {
				continue
			}
			now, ok := c.Metrics[unit]
			switch {
			case !ok:
				lines = append(lines, fmt.Sprintf("FAIL  %s: %s missing from the new run (was %v)", o.Name, unit, was))
				worse = true
			case now > was:
				lines = append(lines, fmt.Sprintf("FAIL  %s: %s rose %v -> %v", o.Name, unit, was, now))
				worse = true
			case now < was:
				lines = append(lines, fmt.Sprintf("ok    %s: %s fell %v -> %v (re-capture the baseline)", o.Name, unit, was, now))
			default:
				lines = append(lines, fmt.Sprintf("ok    %s: %s %v", o.Name, unit, now))
			}
		}
	}
	return lines, worse
}
