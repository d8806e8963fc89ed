package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"kairos/internal/lint/lintutil"
)

// parseFunc type-checks src (one file of package p) and returns the CFG
// of the named function plus the file and info for node lookup.
func parseFunc(t *testing.T, src, name string) (*CFG, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, info, err := lintutil.TypeCheck(fset, lintutil.NewImporter(fset), "p", []*ast.File{f})
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return New(fd.Body), f, info
		}
	}
	t.Fatalf("no function %s", name)
	return nil, nil, nil
}

// callNamed finds the call expression whose callee renders as name.
func callNamed(t *testing.T, f *ast.File, name string) *ast.CallExpr {
	t.Helper()
	var out *ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var b strings.Builder
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			b.WriteString(fun.Name)
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); ok {
				b.WriteString(x.Name + ".")
			}
			b.WriteString(fun.Sel.Name)
		}
		if b.String() == name && out == nil {
			out = call
		}
		return true
	})
	if out == nil {
		t.Fatalf("no call %s", name)
	}
	return out
}

// dominates reports whether a runs before b on every path from entry to
// b, read off the graph's edges: the two share a block and a comes first,
// or b's block cannot be reached from Entry without passing a's. The
// TestDominates cases are the CFG builder's tests: a missing or extra
// edge changes an answer.
func dominates(c *CFG, a, b ast.Node) bool {
	ba, bb := c.BlockOf(a), c.BlockOf(b)
	if ba == bb {
		return a.Pos() < b.Pos()
	}
	seen := map[*Block]bool{ba: true}
	for stack := []*Block{c.Entry}; len(stack) > 0; {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == bb {
			return false
		}
		if !seen[blk] {
			seen[blk] = true
			stack = append(stack, blk.Succs...)
		}
	}
	return true
}

func TestDominatesStraightLine(t *testing.T) {
	cfg, f, _ := parseFunc(t, `package p
func a() {}
func b() {}
func f() { a(); b() }
`, "f")
	ca, cb := callNamed(t, f, "a"), callNamed(t, f, "b")
	if !dominates(cfg, ca, cb) {
		t.Errorf("a() should dominate b() in straight-line code")
	}
	if dominates(cfg, cb, ca) {
		t.Errorf("b() must not dominate the earlier a()")
	}
}

func TestDominatesBranches(t *testing.T) {
	cfg, f, _ := parseFunc(t, `package p
func a() {}
func b() {}
func c() {}
func f(x bool) {
	if x {
		a()
	}
	b()
	if x {
		c()
	}
}
`, "f")
	ca, cb, cc := callNamed(t, f, "a"), callNamed(t, f, "b"), callNamed(t, f, "c")
	if dominates(cfg, ca, cb) {
		t.Errorf("a() inside one branch must not dominate b() after the join")
	}
	if !dominates(cfg, cb, cc) {
		t.Errorf("b() before the second if should dominate c()")
	}
}

func TestDominatesEarlyReturn(t *testing.T) {
	cfg, f, _ := parseFunc(t, `package p
func a() {}
func b() {}
func f(x bool) {
	if x {
		return
	}
	a()
	b()
}
`, "f")
	ca, cb := callNamed(t, f, "a"), callNamed(t, f, "b")
	if !dominates(cfg, ca, cb) {
		t.Errorf("a() should dominate b() past the early return")
	}
}

func TestDominatesLoop(t *testing.T) {
	cfg, f, _ := parseFunc(t, `package p
func a() {}
func b() {}
func c() {}
func f(n int) {
	a()
	for i := 0; i < n; i++ {
		b()
	}
	c()
}
`, "f")
	ca, cb, cc := callNamed(t, f, "a"), callNamed(t, f, "b"), callNamed(t, f, "c")
	if !dominates(cfg, ca, cb) || !dominates(cfg, ca, cc) {
		t.Errorf("pre-loop a() should dominate the body and the continuation")
	}
	if dominates(cfg, cb, cc) {
		t.Errorf("loop body b() must not dominate c(): the loop may run zero times")
	}
}

func TestDominatesSwitchAndSelect(t *testing.T) {
	cfg, f, _ := parseFunc(t, `package p
func a() {}
func b() {}
func f(x int, ch chan int) {
	switch x {
	case 1:
		a()
	default:
	}
	b()
}
`, "f")
	ca, cb := callNamed(t, f, "a"), callNamed(t, f, "b")
	if dominates(cfg, ca, cb) {
		t.Errorf("one switch case must not dominate the code after the switch")
	}

	cfg, f, _ = parseFunc(t, `package p
func a() {}
func b() {}
func g(ch chan int, done chan struct{}) {
	for {
		select {
		case <-ch:
			a()
		case <-done:
		}
		b()
	}
}
`, "g")
	ca, cb = callNamed(t, f, "a"), callNamed(t, f, "b")
	if dominates(cfg, ca, cb) {
		t.Errorf("one select arm must not dominate the post-select code")
	}
}

func TestDominatesBreakBypassesTail(t *testing.T) {
	cfg, f, _ := parseFunc(t, `package p
func a() {}
func b() {}
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		a()
	}
	b()
}
`, "f")
	ca, cb := callNamed(t, f, "a"), callNamed(t, f, "b")
	if dominates(cfg, ca, cb) {
		t.Errorf("a() after a conditional break must not dominate post-loop b()")
	}
}

func TestClosureInteriorIsOutOfGraph(t *testing.T) {
	cfg, f, _ := parseFunc(t, `package p
func a() {}
func f() {
	g := func() { a() }
	g()
}
`, "f")
	ca := callNamed(t, f, "a")
	if cfg.BlockOf(ca) != nil {
		t.Errorf("closure interior nodes must map to no block")
	}
}

// deadWritesOf runs DeadWrites over every error-typed local of fn.
func deadWritesOf(t *testing.T, src, fn string) []DeadWrite {
	t.Helper()
	cfg, _, info := parseFunc(t, src, fn)
	isErr := func(v *types.Var) bool {
		return v.Type().String() == "error"
	}
	return cfg.DeadWrites(info, isErr)
}

func TestDeadWriteStraightLine(t *testing.T) {
	dead := deadWritesOf(t, `package p
import "errors"
func f() error {
	err := errors.New("first")
	err = errors.New("second")
	return err
}
`, "f")
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
`, "f")
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
`, "f")
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
`, "f")
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
`, "f")
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
`, "f")
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
`, "f")
	if len(dead) != 0 {
		t.Fatalf("address-taken variable must be skipped, got %+v", dead)
	}
}
