package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/driver"
	"kairos/internal/lint/lintutil"
)

// progOf type-checks one in-memory package into a Program.
func progOf(t *testing.T, src string) *analysis.Program {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}
	pkg, info, err := lintutil.TypeCheck(fset, importer.ForCompiler(fset, "gc", nil), "fix", files)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Program{
		Fset:     fset,
		Packages: []*analysis.ProgramPackage{{Path: "fix", Files: files, Pkg: pkg, TypesInfo: info}},
	}
}

// nodeNamed finds the node whose function is named name in the fixture.
func nodeNamed(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	var found *Node
	for _, n := range g.Nodes {
		if n.Func.Name() == name && n.Decl != nil {
			if found != nil {
				t.Fatalf("two declared nodes named %s", name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no declared node named %s", name)
	}
	return found
}

// calleeNames flattens a node's edges to "name" or "Type.name" strings.
func calleeNames(edges []Edge) []string {
	var out []string
	for _, e := range edges {
		fn := e.Callee.Func
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type().String()
			if i := strings.LastIndexByte(rt, '.'); i >= 0 {
				rt = rt[i+1:]
			}
			name = strings.TrimPrefix(rt, "*") + "." + name
		}
		out = append(out, name)
	}
	return out
}

func TestStaticAndMethodResolution(t *testing.T) {
	g := Build(progOf(t, `package fix

type T struct{ n int }

func (t *T) Bump() { t.n++ }

func helper() {}

func caller(t *T) {
	helper()
	t.Bump()
}
`))
	caller := nodeNamed(t, g, "caller")
	names := calleeNames(caller.Out)
	if len(names) != 2 || names[0] != "helper" || names[1] != "T.Bump" {
		t.Fatalf("caller edges = %v, want [helper T.Bump]", names)
	}
	for _, e := range caller.Out {
		if e.Callee.Decl == nil {
			t.Errorf("edge to %s has no body", e.Callee.Func.Name())
		}
	}
}

func TestInterfaceFanOut(t *testing.T) {
	g := Build(progOf(t, `package fix

type Pricer interface{ Price() float64 }

type Flat struct{}

func (Flat) Price() float64 { return 1 }

type Tiered struct{}

func (*Tiered) Price() float64 { return 2 }

type Unrelated struct{}

func (Unrelated) Cost() float64 { return 3 }

func eval(p Pricer) float64 { return p.Price() }
`))
	eval := nodeNamed(t, g, "eval")
	var abstract, flat, tiered, unrelated int
	for _, e := range eval.Out {
		recv := e.Callee.Func.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		rt := recv.Type().String()
		switch {
		case types.IsInterface(recv.Type()):
			abstract++
		case strings.Contains(rt, "Flat"):
			flat++
		case strings.Contains(rt, "Tiered"):
			tiered++
		case strings.Contains(rt, "Unrelated"):
			unrelated++
		}
	}
	if abstract != 1 {
		t.Errorf("got %d abstract edges, want 1", abstract)
	}
	if flat != 1 || tiered != 1 {
		t.Errorf("fan-out reached Flat=%d Tiered=%d, want 1 and 1", flat, tiered)
	}
	if unrelated != 0 {
		t.Errorf("fan-out reached Unrelated, which does not implement Pricer")
	}
}

func TestCallContextFlags(t *testing.T) {
	g := Build(progOf(t, `package fix

func work() {}

func fail(msg string) string { return msg }

func caller() {
	go work()
	defer work()
	go func() { work() }()
	func() { work() }()
	panic(fail("boom"))
}
`))
	caller := nodeNamed(t, g, "caller")
	type want struct{ g, d, p, c bool }
	wants := []want{
		{g: true}, // go work()
		{d: true}, // defer work()
		{g: true}, // work() inside go'd literal: concurrent, runs at the go
		{},        // work() inside immediately-invoked literal: runs inline
		{p: true}, // fail() inside panic argument
	}
	if len(caller.Out) != len(wants) {
		t.Fatalf("caller has %d edges (%v), want %d", len(caller.Out), calleeNames(caller.Out), len(wants))
	}
	for i, w := range wants {
		e := caller.Out[i]
		if e.Go != w.g || e.Defer != w.d || e.InPanic != w.p || e.InClosure != w.c {
			t.Errorf("edge %d (%s): go=%v defer=%v panic=%v closure=%v, want %+v",
				i, e.Callee.Func.Name(), e.Go, e.Defer, e.InPanic, e.InClosure, w)
		}
	}
}

func TestUnresolvedFuncValues(t *testing.T) {
	g := Build(progOf(t, `package fix

func caller(f func()) {
	f()
}
`))
	caller := nodeNamed(t, g, "caller")
	if len(caller.Out) != 0 {
		t.Fatalf("func-value call: %d edges, want 0", len(caller.Out))
	}
}

// TestGoInsideLoops: a go statement keeps its concurrency flag no matter
// how it is reached — directly in a loop body, or through a closure the
// loop launches.
func TestGoInsideLoops(t *testing.T) {
	g := Build(progOf(t, `package fix

func work() {}

func spawner(jobs []int) {
	for i := 0; i < len(jobs); i++ {
		go work()
	}
	for range jobs {
		go func() { work() }()
	}
}
`))
	spawner := nodeNamed(t, g, "spawner")
	if len(spawner.Out) != 2 {
		t.Fatalf("spawner has %d edges (%v), want 2", len(spawner.Out), calleeNames(spawner.Out))
	}
	for i, e := range spawner.Out {
		if !e.Go {
			t.Errorf("edge %d (%s): Go=false, want true — loop spawns are still concurrent", i, e.Callee.Func.Name())
		}
		if e.Defer || e.InPanic {
			t.Errorf("edge %d picked up spurious context flags: %+v", i, e)
		}
	}
}

// TestDeferredClosureInterior: calls inside `defer func(){...}()` carry
// Defer (they run at unwind time) but not InClosure (the literal is
// invoked at its defer site, not stored). A closure that is stored and
// deferred later is the opposite: its interior is InClosure, and the
// deferred invocation itself adds no edge.
func TestDeferredClosureInterior(t *testing.T) {
	g := Build(progOf(t, `package fix

func cleanup() {}

func work() {}

func caller() {
	defer func() {
		cleanup()
	}()
	f := func() { work() }
	defer f()
}
`))
	caller := nodeNamed(t, g, "caller")
	names := calleeNames(caller.Out)
	if len(names) != 2 || names[0] != "cleanup" || names[1] != "work" {
		t.Fatalf("caller edges = %v, want [cleanup work]", names)
	}
	if e := caller.Out[0]; !e.Defer || e.InClosure {
		t.Errorf("cleanup edge: defer=%v closure=%v, want defer inside an immediately-deferred literal", e.Defer, e.InClosure)
	}
	if e := caller.Out[1]; e.Defer || !e.InClosure {
		t.Errorf("work edge: defer=%v closure=%v, want a plain closure interior", e.Defer, e.InClosure)
	}
}

// TestMethodValues: calling through a method value is a func-value call
// the graph cannot resolve, while the same method deferred directly is a
// resolved edge.
func TestMethodValues(t *testing.T) {
	g := Build(progOf(t, `package fix

type T struct{}

func (T) Bump() {}

func caller(t T) {
	f := t.Bump
	f()
	go f()
	defer t.Bump()
}
`))
	caller := nodeNamed(t, g, "caller")
	names := calleeNames(caller.Out)
	if len(names) != 1 || names[0] != "T.Bump" {
		t.Fatalf("caller edges = %v, want only the direct defer t.Bump()", names)
	}
	if e := caller.Out[0]; !e.Defer {
		t.Errorf("defer t.Bump(): defer=%v, want a deferred edge", e.Defer)
	}
}

func TestSummaries(t *testing.T) {
	g := Build(progOf(t, `package fix

func nonBlocking(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func blocks(ch chan int, done chan struct{}) int {
	ch <- 1
	v := <-ch
	for range done {
	}
	select {
	case <-done:
	}
	select {
	case <-done:
	default:
	}
	return v
}
`))
	if n := nodeNamed(t, g, "nonBlocking"); len(n.Blocking) != 0 {
		t.Errorf("nonBlocking summary: %d blocking, want 0", len(n.Blocking))
	}
	n := nodeNamed(t, g, "blocks")
	var whats []string
	for _, op := range n.Blocking {
		whats = append(whats, op.What)
	}
	want := []string{"channel send", "channel receive", "range over channel", "select without default"}
	if strings.Join(whats, ",") != strings.Join(want, ",") {
		t.Errorf("blocks summary = %v, want %v", whats, want)
	}
}

// TestCrossUniverseIdentity: a function declared in a source-checked
// unit and the same function imported from export data by another unit
// are two *types.Func objects — the imported one's position has no
// column — and map to ONE node, which carries the declaration.
func TestCrossUniverseIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("shells go list and type-checks real module packages")
	}
	// polyfit calls floats.Same; each is its own unit.
	prog, err := driver.Load([]string{"kairos/internal/floats", "kairos/internal/polyfit"})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(prog)
	var hits int
	for _, n := range g.Nodes {
		if n.Decl == nil || n.Pkg.Path != "kairos/internal/polyfit" {
			continue
		}
		for _, e := range n.Out {
			if e.Callee.Func.Pkg().Path() != "kairos/internal/floats" {
				continue
			}
			hits++
			if e.Callee.Decl == nil {
				t.Errorf("%s: edge to %s resolved to a node without the declaration", n.ID, e.Callee.ID)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no polyfit → floats edge: the cross-unit path is unexercised")
	}
}
