// Package analysistest runs a kairoslint analyzer over fixture packages
// and checks its diagnostics against // want annotations — the same
// contract as golang.org/x/tools/go/analysis/analysistest, on the repo's
// dependency-free driver.
//
// Fixtures live under <testdata>/src/<pkg>/*.go. A line that should fire
// carries a trailing comment of the form
//
//	// want "regexp" "another regexp"
//
// with one double-quoted regexp per expected diagnostic on that line.
// Lines without a want comment must stay silent — so weakening an
// analyzer (a want stops matching) and over-firing (a diagnostic with no
// want) both fail the test. //kairoslint:allow suppressions are applied
// exactly as the real driver applies them, letting fixtures prove the
// escape hatch works.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/lintutil"
)

// expectation is one // want regexp awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run checks the analyzer against each fixture package under
// testdata/src. Fixture packages may import the standard library only:
// imports are read from the compiler's export data, as the driver reads
// them.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runOne(t, filepath.Join(testdata, "src", pkg), pkg, a)
	}
}

func runOne(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	pkg, info, err := lintutil.TypeCheck(fset, importer.ForCompiler(fset, "gc", nil), pkgPath, files)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}

	expects := collectWants(t, fset, files)
	supp := lintutil.NewSuppressions(fset, files)
	report := func(d analysis.Diagnostic) {
		if supp.Allowed(d.Pos, a.Name) {
			return
		}
		pos := fset.Position(d.Pos)
		for _, ex := range expects {
			if ex.matched || ex.file != pos.Filename || ex.line != pos.Line {
				continue
			}
			if ex.re.MatchString(d.Message) {
				ex.matched = true
				return
			}
		}
		t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
	}
	if a.RunProgram != nil {
		// Whole-program analyzer: wrap the fixture as a one-package
		// Program, exactly how the driver wraps the real tree.
		prog := &analysis.Program{
			Fset: fset,
			Packages: []*analysis.ProgramPackage{
				{Path: pkgPath, Files: files, Pkg: pkg, TypesInfo: info},
			},
			Report: report,
		}
		if err := a.RunProgram(prog); err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
	} else {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    report,
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgPath, err)
		}
	}
	for _, ex := range expects {
		if !ex.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", ex.file, ex.line, ex.raw)
		}
	}
}

// collectWants parses the // want comments of every fixture file.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitQuoted(t, pos, strings.TrimPrefix(text, "want ")) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return out
}

// splitQuoted parses a sequence of double-quoted Go strings.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		q, err := strconv.QuotedPrefix(s)
		if err != nil || q[0] != '"' {
			t.Fatalf("%s: want expectations must be double-quoted strings, got %q", pos, s)
		}
		unq, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: bad want string %q: %v", pos, q, err)
		}
		out = append(out, unq)
		s = s[len(q):]
	}
	return out
}
