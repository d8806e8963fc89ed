package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/driver"
	"kairos/internal/lint/lintutil"
)

// TestReadmeNamesTheSuite: the README's analyzer tables (its "Static
// analysis" section) name exactly the analyzers Analyzers returns, so
// adding or deleting one cannot leave the docs behind.
func TestReadmeNamesTheSuite(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Static analysis\n")
	if !ok {
		t.Fatal(`README.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		// A table row whose first cell is a backticked name: | `name` | ... |
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			if name, _, ok := strings.Cut(cell, "` |"); ok {
				documented = append(documented, name)
			}
		}
	}
	var suite []string
	for _, a := range Analyzers() {
		suite = append(suite, a.Name)
	}
	slices.Sort(documented)
	slices.Sort(suite)
	if !slices.Equal(documented, suite) {
		t.Errorf("README.md's analyzer tables name %q, the suite is %q", documented, suite)
	}
}

// TestEveryWaiverSuppressesAFinding: every //kairoslint:allow directive
// outside internal/lint (whose fixtures waive on purpose) matches a
// finding of the analyzer it names, so a waiver whose finding went away
// goes too. It also holds lockorder's cross-package identity: the
// fleet.go waivers match only when a call into another package meets
// that package's declaration.
func TestEveryWaiverSuppressesAFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("shells go list and type-checks the whole module")
	}
	prog, err := driver.Load([]string{"kairos/..."})
	if err != nil {
		t.Fatal(err)
	}
	// Record every finding before the driver's own suppression drops it.
	var mu sync.Mutex
	var findings []analysis.Diagnostic
	var names []string
	record := func(name string, d analysis.Diagnostic) {
		mu.Lock()
		defer mu.Unlock()
		findings = append(findings, d)
		names = append(names, name)
	}
	var wrapped []*analysis.Analyzer
	for _, a := range Analyzers() {
		w := *a
		if a.Run != nil {
			w.Run = func(pass *analysis.Pass) (any, error) {
				pass.Report = func(d analysis.Diagnostic) { record(a.Name, d) }
				return a.Run(pass)
			}
		} else {
			w.RunProgram = func(prog *analysis.Program) error {
				prog.Report = func(d analysis.Diagnostic) { record(a.Name, d) }
				return a.RunProgram(prog)
			}
		}
		wrapped = append(wrapped, &w)
	}
	if _, err := driver.Run(prog, wrapped); err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range prog.Packages {
		files = append(files, p.Files...)
	}
	supp := lintutil.NewSuppressions(prog.Fset, files)
	for i, d := range findings {
		supp.Allowed(d.Pos, names[i])
	}
	for _, pos := range supp.Unmatched() {
		p := prog.Fset.Position(pos)
		if !strings.Contains(filepath.ToSlash(p.Filename), "/internal/lint/") {
			t.Errorf("%s: waiver suppresses no finding — delete it", p)
		}
	}
}
