package errflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"testing"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/lintutil"
)

// deadWritesOf type-checks src (one file of package p) and returns the
// overwritten-before-read diagnostics of its bodies. The fixtures in
// testdata/src/errfix pin the same shapes with their messages; these
// tests pin each shape's count by name.
func deadWritesOf(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	files := []*ast.File{f}
	pkg, info, err := lintutil.TypeCheck(fset, importer.ForCompiler(fset, "gc", nil), "p", files)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var dead []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer: Analyzer, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		Report: func(d analysis.Diagnostic) { dead = append(dead, d) },
	}
	checkDeadErrorWrites(pass, f)
	return dead
}

func TestDeadWriteStraightLine(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func f() error {
	err := errors.New("first")
	err = errors.New("second")
	return err
}
`)
	if len(dead) != 1 {
		t.Fatalf("want 1 dead write, got %d: %+v", len(dead), dead)
	}
}

func TestWriteReadBetweenIsLive(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func f() error {
	err := errors.New("first")
	if err != nil {
		return err
	}
	err = errors.New("second")
	return err
}
`)
	if len(dead) != 0 {
		t.Fatalf("want no dead writes, got %+v", dead)
	}
}

func TestLoopSelfOverwriteIsLive(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func f(n int) error {
	var err error
	for i := 0; i < n; i++ {
		err = errors.New("x")
		if err == nil {
			break
		}
	}
	return err
}
`)
	if len(dead) != 0 {
		t.Fatalf("want no dead writes in self-overwriting loop, got %+v", dead)
	}
}

func TestBranchOverwriteOnOnePathIsLive(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func f(x bool) error {
	err := errors.New("first")
	if x {
		err = errors.New("second")
	}
	return err
}
`)
	if len(dead) != 0 {
		t.Fatalf("one-path overwrite must stay live, got %+v", dead)
	}
}

func TestCapturedVarIsSkipped(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func f() error {
	var err error
	g := func() { err = errors.New("inner") }
	err = errors.New("outer")
	g()
	return err
}
`)
	if len(dead) != 0 {
		t.Fatalf("captured variable must be skipped, got %+v", dead)
	}
}

func TestUnreachableWriteIsSkipped(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func f(n int) error {
	for {
		if n > 0 {
			return nil
		}
	}
	err := errors.New("first")
	err = errors.New("second")
	return err
}
`)
	if len(dead) != 0 {
		t.Fatalf("writes after a loop with no exit are unreachable, got %+v", dead)
	}
}

func TestAddressTakenIsSkipped(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func sink(*error) {}
func f() error {
	err := errors.New("first")
	sink(&err)
	err = errors.New("second")
	return err
}
`)
	if len(dead) != 0 {
		t.Fatalf("address-taken variable must be skipped, got %+v", dead)
	}
}
