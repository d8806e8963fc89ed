package driver

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/lintutil"
)

// fakePkg type-checks one in-memory file into a package, bypassing go
// list so the Run contract can be pinned hermetically.
func fakePkg(t *testing.T, fset *token.FileSet, path, src string) *analysis.ProgramPackage {
	t.Helper()
	f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	tpkg, info, err := lintutil.TypeCheck(fset, importer.ForCompiler(fset, "gc", nil), path, files)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.ProgramPackage{Path: path, Files: files, Pkg: tpkg, TypesInfo: info}
}

// TestRunSuppressionAndBadWaivers: well-formed waivers drop findings,
// reasonless waivers surface as findings of the pseudo-analyzer `allow`
// (and are not themselves suppressible), and output is position-sorted.
func TestRunSuppressionAndBadWaivers(t *testing.T) {
	fset := token.NewFileSet()
	pkg := fakePkg(t, fset, "fix", `package fix

var a = 1 // fires
var b = 2 //kairoslint:allow stub: proven harmless in this fixture
var c = 3 //kairoslint:allow stub
`)
	stub := &analysis.Analyzer{
		Name: "stub",
		Doc:  "reports every var declaration",
		Run: func(pass *analysis.Pass) (any, error) {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
						pass.Reportf(gd.Pos(), "var at top level")
					}
				}
			}
			return nil, nil
		},
	}
	diags, err := Run(&analysis.Program{Fset: fset, Packages: []*analysis.ProgramPackage{pkg}}, []*analysis.Analyzer{stub})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+"@"+d.Pos.String())
	}
	// Line 3 fires (no waiver). Line 4 is suppressed with a reason. Line 5
	// is suppressed but its reasonless waiver is an `allow` finding.
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(diags), got)
	}
	if diags[0].Analyzer != "stub" || diags[0].Pos.Line != 3 {
		t.Errorf("diags[0] = %+v, want stub finding on line 3", diags[0])
	}
	if diags[1].Analyzer != "allow" || diags[1].Pos.Line != 5 {
		t.Errorf("diags[1] = %+v, want allow finding on line 5", diags[1])
	}
	if !strings.Contains(diags[1].Message, "reason") {
		t.Errorf("allow finding message %q should explain the missing reason", diags[1].Message)
	}
}

// TestRunProgramAnalyzers: RunProgram analyzers see every package at
// once, and their findings respect //kairoslint:allow like any other.
func TestRunProgramAnalyzers(t *testing.T) {
	fset := token.NewFileSet()
	pkgA := fakePkg(t, fset, "consta", `package consta

const A = 1 // prog fires here
`)
	pkgB := fakePkg(t, fset, "constb", `package constb

const B = 2 //kairoslint:allow prog: fixture waiver for the program path
`)
	mkProg := func(name string) *analysis.Analyzer {
		return &analysis.Analyzer{
			Name: name,
			Doc:  "reports every const declaration, program-wide",
			RunProgram: func(prog *analysis.Program) error {
				for _, pp := range prog.Packages {
					for _, f := range pp.Files {
						for _, d := range f.Decls {
							if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
								prog.Reportf(gd.Pos(), "const in %s", pp.Path)
							}
						}
					}
				}
				return nil
			},
		}
	}
	prog := &analysis.Program{Fset: fset, Packages: []*analysis.ProgramPackage{pkgA, pkgB}}
	diags, err := Run(prog, []*analysis.Analyzer{mkProg("prog"), mkProg("prog2")})
	if err != nil {
		t.Fatal(err)
	}
	// pkgA's const fires for both analyzers; pkgB's waiver names only
	// `prog`, so `prog2` still fires there.
	var gotA, gotB2 int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "consta"):
			gotA++
		case strings.Contains(d.Message, "constb") && d.Analyzer == "prog2":
			gotB2++
		case strings.Contains(d.Message, "constb") && d.Analyzer == "prog":
			t.Errorf("waived prog finding leaked: %+v", d)
		}
	}
	if gotA != 2 || gotB2 != 1 {
		t.Errorf("got %d consta findings (want 2) and %d prog2 constb findings (want 1): %v", gotA, gotB2, diags)
	}
}

// TestLoadDeterministicOrder: the parallel loader returns units in
// discovery order regardless of goroutine scheduling.
func TestLoadDeterministicOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("shells go list and type-checks real packages")
	}
	patterns := []string{"kairos/internal/floats", "kairos/internal/lint/analysis", "kairos/internal/lint/lintutil"}
	var first []string
	for round := 0; round < 3; round++ {
		prog, err := Load(patterns)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, p := range prog.Packages {
			order = append(order, p.Path)
		}
		if round == 0 {
			first = order
			continue
		}
		if strings.Join(order, ",") != strings.Join(first, ",") {
			t.Fatalf("round %d order %v != first %v", round, order, first)
		}
	}
	t.Logf("stable order: %v", first)
}
