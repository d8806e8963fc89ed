// Package callgraph builds a type-informed call graph over a loaded
// analysis.Program — the engine under the interprocedural kairoslint
// analyzers (ctxflow, leakcheck, lockorder).
//
// Resolution:
//
//   - Direct calls (f(x), pkg.F(x)) and method calls on concrete
//     receivers resolve through the type checker to one static edge.
//   - Method calls on interface receivers fan out conservatively: one
//     dynamic edge per method of a program-declared type that implements
//     the interface, plus one dynamic edge to the abstract interface
//     method itself (whose node has no body — unknown implementors
//     outside the program stay visibly unknown).
//   - Calls through function values (including method values) cannot be
//     resolved and add no edge.
//
// Identity is cross-universe: the driver type-checks every unit as a
// root, so the same function can surface as distinct *types.Func objects
// (once from its own unit, once re-checked by the source importer for a
// dependent unit). All units share one token.FileSet, so nodes key on
// the position string of the defining identifier, which is identical in
// every universe; position-less objects fall back to types.Func.FullName.
//
// Each node with a body carries the summary the analyzers share: its
// directly blocking operations (channel send/receive, range over a
// channel, select without a default). Calls inside closure bodies are attributed to the
// enclosing declared function with InClosure set; closures launched via
// go statements mark their interior edges Go, since those run
// concurrently with the caller.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"kairos/internal/lint/analysis"
)

// Graph is the whole-program call graph.
type Graph struct {
	Prog *analysis.Program
	// Nodes indexes every function seen as a definition or a call
	// target, keyed by Node.ID.
	Nodes map[string]*Node
}

// Node is one function or method.
type Node struct {
	// ID is the node's program-wide identity: the shared-FileSet
	// position string of the defining identifier, or the checker's
	// FullName for objects without source positions.
	ID   string
	Func *types.Func
	// Decl and Pkg are set when the body lives in a loaded package;
	// stdlib callees and abstract interface methods have neither.
	Decl *ast.FuncDecl
	Pkg  *analysis.ProgramPackage
	// Out lists the node's call sites in source order.
	Out []Edge
	// Blocking lists the body's directly blocking operations.
	Blocking []Op
}

// Abstract reports whether the node is an interface method — a dynamic
// dispatch point rather than code.
func (n *Node) Abstract() bool {
	if n.Func == nil {
		return false
	}
	recv := n.Func.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// EdgeKind distinguishes checker-resolved calls from conservative
// interface fan-out.
type EdgeKind int

const (
	// Static edges are fully resolved by the type checker.
	Static EdgeKind = iota
	// Dynamic edges come from interface dispatch: one per possible
	// implementor, plus one to the abstract method.
	Dynamic
)

// Edge is one call site.
type Edge struct {
	Pos    token.Pos
	Callee *Node
	Kind   EdgeKind
	// Go marks calls that run concurrently with the caller: go
	// statements, and every call inside a go'd closure.
	Go bool
	// Defer marks deferred calls and calls inside deferred closures.
	Defer bool
	// InPanic marks calls inside a panic argument — an already-cold path.
	InPanic bool
	// InClosure marks calls inside a closure body, attributed to the
	// enclosing declared function.
	InClosure bool
}

// Op is one directly blocking operation in a function body.
type Op struct {
	Pos  token.Pos
	What string
}

type memoKey struct{}

// Of returns the program's call graph, building it on first use and
// memoizing it on the Program so every analyzer shares one build.
func Of(prog *analysis.Program) *Graph {
	return prog.Memo(memoKey{}, func() any { return build(prog) }).(*Graph)
}

func build(prog *analysis.Program) *Graph {
	g := &Graph{Prog: prog, Nodes: map[string]*Node{}}
	var calls []ifaceCall
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.nodeFor(fn)
				n.Decl = fd
				n.Pkg = pkg
				// The node may have been created earlier as a callee seen
				// from an importing package's universe; rebind Func to the
				// declaring universe's object so signature-derived objects
				// (parameters, results) match n.Pkg.TypesInfo.
				n.Func = fn
				n.Blocking = blockingOps(pkg.TypesInfo, fd.Body)
				c := &collector{g: g, pkg: pkg, caller: n, iface: &calls}
				c.walkBody(fd.Body, flags{})
			}
		}
	}
	g.fanOut(calls)
	return g
}

// NodeOf returns the node for fn, or nil if fn was never seen.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	return g.Nodes[g.idOf(fn)]
}

func (g *Graph) idOf(fn *types.Func) string {
	if fn.Pos() != token.NoPos {
		return g.Prog.Fset.Position(fn.Pos()).String()
	}
	return fn.FullName()
}

func (g *Graph) nodeFor(fn *types.Func) *Node {
	// Generic instantiations share their origin's declaration.
	fn = fn.Origin()
	id := g.idOf(fn)
	if n, ok := g.Nodes[id]; ok {
		return n
	}
	n := &Node{ID: id, Func: fn}
	g.Nodes[id] = n
	return n
}

// flags is the syntactic context a call site inherits from its
// enclosing statements.
type flags struct {
	goCtx, deferCtx, panicCtx, closureCtx bool
}

// ifaceCall is a deferred interface-method call awaiting fan-out once
// the whole program's type set is known.
type ifaceCall struct {
	caller *Node
	pos    token.Pos
	method *types.Func // the abstract interface method
	iface  *types.Interface
	fl     flags
}

type collector struct {
	g      *Graph
	pkg    *analysis.ProgramPackage
	caller *Node
	iface  *[]ifaceCall
}

// walkBody visits n, classifying every call expression under the
// current flags.
func (c *collector) walkBody(n ast.Node, fl flags) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.GoStmt:
			c.visitCall(node.Call, flags{goCtx: true, panicCtx: fl.panicCtx, closureCtx: fl.closureCtx})
			return false
		case *ast.DeferStmt:
			c.visitCall(node.Call, flags{deferCtx: true, goCtx: fl.goCtx, panicCtx: fl.panicCtx, closureCtx: fl.closureCtx})
			return false
		case *ast.CallExpr:
			c.visitCall(node, fl)
			return false
		case *ast.FuncLit:
			next := fl
			next.closureCtx = true
			c.walkBody(node.Body, next)
			return false
		}
		return true
	})
}

// visitCall records the call's edge (when resolvable) and walks its
// operands.
func (c *collector) visitCall(call *ast.CallExpr, fl flags) {
	info := c.pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Builtins: panic marks its arguments cold; the rest are not calls
	// in the graph's sense.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			argFl := fl
			if b.Name() == "panic" {
				argFl.panicCtx = true
			}
			c.walkArgs(call, argFl)
			return
		}
	}
	// Type conversions are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.walkArgs(call, fl)
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			c.edge(call.Lparen, fn, Static, fl)
			c.walkArgs(call, fl)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if iface, ok := types.Unalias(sel.Recv()).Underlying().(*types.Interface); ok {
					*c.iface = append(*c.iface, ifaceCall{caller: c.caller, pos: call.Lparen, method: fn, iface: iface, fl: fl})
				} else {
					c.edge(call.Lparen, fn, Static, fl)
				}
				c.walkBody(fun.X, fl)
				c.walkArgs(call, fl)
				return
			}
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Qualified call pkg.F(x): no selection entry.
			c.edge(call.Lparen, fn, Static, fl)
			c.walkArgs(call, fl)
			return
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body runs here, inline.
		c.walkBody(fun.Body, fl)
		c.walkArgs(call, fl)
		return
	}

	// A call through a function value: unresolvable, so no edge.
	c.walkBody(call.Fun, fl)
	c.walkArgs(call, fl)
}

func (c *collector) walkArgs(call *ast.CallExpr, fl flags) {
	for _, arg := range call.Args {
		c.walkBody(arg, fl)
	}
}

func (c *collector) edge(pos token.Pos, fn *types.Func, kind EdgeKind, fl flags) {
	c.caller.Out = append(c.caller.Out, Edge{
		Pos:       pos,
		Callee:    c.g.nodeFor(fn),
		Kind:      kind,
		Go:        fl.goCtx,
		Defer:     fl.deferCtx,
		InPanic:   fl.panicCtx,
		InClosure: fl.closureCtx,
	})
}

// fanOut resolves the deferred interface calls against every named type
// declared anywhere in the program.
func (g *Graph) fanOut(calls []ifaceCall) {
	if len(calls) == 0 {
		return
	}
	named := g.programTypes()
	for _, ic := range calls {
		// The abstract method edge keeps unknown implementors visible.
		ic.caller.Out = append(ic.caller.Out, Edge{
			Pos:       ic.pos,
			Callee:    g.nodeFor(ic.method),
			Kind:      Dynamic,
			Go:        ic.fl.goCtx,
			Defer:     ic.fl.deferCtx,
			InPanic:   ic.fl.panicCtx,
			InClosure: ic.fl.closureCtx,
		})
		for _, t := range named {
			ptr := types.NewPointer(t)
			var recv types.Type
			switch {
			case types.Implements(t, ic.iface):
				recv = t
			case types.Implements(ptr, ic.iface):
				recv = ptr
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, ic.method.Pkg(), ic.method.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			ic.caller.Out = append(ic.caller.Out, Edge{
				Pos:       ic.pos,
				Callee:    g.nodeFor(fn),
				Kind:      Dynamic,
				Go:        ic.fl.goCtx,
				Defer:     ic.fl.deferCtx,
				InPanic:   ic.fl.panicCtx,
				InClosure: ic.fl.closureCtx,
			})
		}
	}
}

// programTypes returns every named non-interface type declared in a
// loaded package, deduplicated across type-check universes by position.
func (g *Graph) programTypes() []types.Type {
	seen := map[string]bool{}
	var out []types.Type
	for _, pkg := range g.Prog.Packages {
		for _, obj := range pkg.TypesInfo.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Pos() == token.NoPos {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(nt) {
				continue
			}
			id := g.Prog.Fset.Position(tn.Pos()).String()
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, nt)
		}
	}
	// Deterministic fan-out order regardless of map iteration.
	sort.Slice(out, func(i, j int) bool {
		a := out[i].(*types.Named).Obj()
		b := out[j].(*types.Named).Obj()
		pa := g.Prog.Fset.Position(a.Pos()).String()
		pb := g.Prog.Fset.Position(b.Pos()).String()
		return pa < pb
	})
	return out
}

// blockingOps collects the body's directly blocking operations,
// skipping closure interiors (a closure blocks whoever runs it, not
// necessarily this body) and the branches of selects that have a
// default case (those attempts are non-blocking by construction).
func blockingOps(info *types.Info, body ast.Node) []Op {
	var out []Op
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			out = append(out, Op{Pos: n.Arrow, What: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				out = append(out, Op{Pos: n.OpPos, What: "channel receive"})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Chan); ok {
					out = append(out, Op{Pos: n.For, What: "range over channel"})
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				out = append(out, Op{Pos: n.Select, What: "select without default"})
			}
			return false
		}
		return true
	})
	return out
}
