// Package driver loads Go packages and runs kairoslint analyzers over
// them. It enumerates packages with `go list -export -deps -test -json`
// (so build constraints and file lists match the real build exactly, and
// the compiler has already written every dependency's export data),
// parses and type-checks each matched package once from source with its
// imports read from that export data, runs every analyzer, and filters
// //kairoslint:allow-suppressed findings. It is the multichecker behind
// cmd/kairoslint and `make lint`.
package driver

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/lintutil"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	ForTest    string
	DepOnly    bool
}

// Listing is what `go list -export` reported for some patterns: the units
// to type-check from source and the export data file of every package
// they can import. List builds any export data the build cache lacks, so
// its time is build time; Check's is type-checking.
type Listing struct {
	units   []listedPackage
	exports map[string]string // package ID → export data file
}

// Load lists the packages matching patterns (relative to the current
// working directory, which must be inside the module) and type-checks
// them. Test files are included: the analyzers' contracts bind tests too.
func Load(patterns []string) (*analysis.Program, error) {
	l, err := List(patterns)
	if err != nil {
		return nil, err
	}
	return l.Check()
}

// List runs `go list -export -deps -test -json` for the patterns. Each
// matched package is one unit: its test variant "p [p.test]" when it has
// one (its GoFiles then include the in-package tests), else p itself,
// plus "p_test [p.test]" for external tests. Test mains and dependencies
// are not units; they are read from export data only.
func List(patterns []string) (*Listing, error) {
	args := append([]string{"list", "-export", "-deps", "-test",
		"-json=Dir,ImportPath,GoFiles,ImportMap,Export,ForTest,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		listed = append(listed, lp)
	}
	l := &Listing{exports: map[string]string{}}
	hasVariant := map[string]bool{}
	for _, lp := range listed {
		l.exports[lp.ImportPath] = lp.Export
		if lp.ForTest != "" && lp.ImportPath == lp.ForTest+" ["+lp.ForTest+".test]" {
			hasVariant[lp.ForTest] = true
		}
	}
	for _, lp := range listed {
		testMain := lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test")
		if lp.DepOnly || testMain || (lp.ForTest == "" && hasVariant[lp.ImportPath]) {
			continue
		}
		l.units = append(l.units, lp)
	}
	return l, nil
}

// Check parses and type-checks the listed units concurrently, one
// ProgramPackage each, in listing order. Every unit has its own
// importer, reading each import through the unit's ImportMap (a test
// variant replaces its package for the external tests) from the listed
// export data. The FileSet is shared; its methods are synchronized.
func (l *Listing) Check() (*analysis.Program, error) {
	prog := &analysis.Program{Fset: token.NewFileSet(), Packages: make([]*analysis.ProgramPackage, len(l.units))}
	errs := make([]error, len(l.units))
	parallel(len(l.units), func(i int) { prog.Packages[i], errs[i] = l.check(prog.Fset, l.units[i]) })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return prog, nil
}

// parallel runs f(0), …, f(n-1) on at most GOMAXPROCS goroutines and
// returns when all have.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			f(i)
		}(i)
	}
	wg.Wait()
}

func (l *Listing) check(fset *token.FileSet, u listedPackage) (*analysis.ProgramPackage, error) {
	files := make([]*ast.File, len(u.GoFiles))
	for j, name := range u.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(u.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files[j] = f
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if id, ok := u.ImportMap[path]; ok {
			path = id
		}
		if l.exports[path] == "" {
			return nil, fmt.Errorf("go list reported no export data for %s", path)
		}
		return os.Open(l.exports[path])
	}
	path, _, _ := strings.Cut(u.ImportPath, " ") // "p_test [p.test]" checks as p_test
	tpkg, info, err := lintutil.TypeCheck(fset, importer.ForCompiler(fset, "gc", lookup), path, files)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &analysis.ProgramPackage{Path: path, Files: files, Pkg: tpkg, TypesInfo: info}, nil
}

// Diagnostic is one reported finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package of prog, drops suppressed
// findings, and returns the rest sorted by position. Per-package
// analyzers run concurrently across packages; whole-program analyzers
// (RunProgram) run afterwards, sequentially, over prog. Malformed
// //kairoslint:allow directives (no ": <reason>") are reported as
// findings of the pseudo-analyzer `allow` — and are not themselves
// suppressible.
func Run(prog *analysis.Program, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	pkgs, fset := prog.Packages, prog.Fset
	var pkgAs, progAs []*analysis.Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			progAs = append(progAs, a)
		} else {
			pkgAs = append(pkgAs, a)
		}
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	parallel(len(pkgs), func(i int) {
		pkg := pkgs[i]
		supp := lintutil.NewSuppressions(fset, pkg.Files)
		for _, bw := range supp.Bad() {
			perPkg[i] = append(perPkg[i], Diagnostic{
				Analyzer: "allow",
				Pos:      fset.Position(bw.Pos),
				Message:  fmt.Sprintf("waiver needs a reason: want //kairoslint:allow <analyzers>: <reason>, got //%s", bw.Text),
			})
		}
		for _, a := range pkgAs {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				if supp.Allowed(d.Pos, name) {
					return
				}
				perPkg[i] = append(perPkg[i], Diagnostic{
					Analyzer: name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if _, err := a.Run(pass); err != nil {
				errs[i] = fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, diags := range perPkg {
		out = append(out, diags...)
	}

	if len(progAs) > 0 {
		var allFiles []*ast.File
		for _, pkg := range pkgs {
			allFiles = append(allFiles, pkg.Files...)
		}
		supp := lintutil.NewSuppressions(fset, allFiles)
		for _, a := range progAs {
			name := a.Name
			prog.Report = func(d analysis.Diagnostic) {
				if supp.Allowed(d.Pos, name) {
					return
				}
				out = append(out, Diagnostic{
					Analyzer: name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.RunProgram(prog); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
			}
		}
	}

	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Analyzer, b.Analyzer))
	})
	return out, nil
}
