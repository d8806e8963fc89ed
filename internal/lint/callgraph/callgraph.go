// Package callgraph builds a type-informed call graph over a loaded
// analysis.Program — the engine under lockorder, the one
// interprocedural kairoslint analyzer.
//
// Resolution:
//
//   - Direct calls (f(x), pkg.F(x)) and method calls on concrete
//     receivers resolve through the type checker to one edge.
//   - Method calls on interface receivers fan out conservatively: one
//     edge per method of a program-declared type that implements the
//     interface, plus one edge to the abstract interface method itself
//     (whose node has no body — unknown implementors outside the program
//     stay visibly unknown).
//   - Calls through function values (including method values) cannot be
//     resolved and add no edge.
//
// Identity is by name: each unit is type-checked on its own and imports
// the others from export data, so a function is one *types.Func in its
// declaring unit and another in every unit that calls it. Nodes key on
// types.Func.FullName of the generic origin ("(*pkg/path.T).M"), which
// every universe agrees on. Positions would not do: export data records
// an object's file and line but not its column.
//
// Each node with a body carries its directly blocking operations
// (channel send/receive, range over a channel, select without a
// default). Calls inside closure bodies are attributed to the enclosing
// declared function with InClosure set; closures launched via go
// statements mark their interior edges Go, since those run concurrently
// with the caller.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"kairos/internal/lint/analysis"
)

// Graph is the whole-program call graph.
type Graph struct {
	Prog *analysis.Program
	// Nodes indexes every function seen as a definition or a call
	// target, keyed by Node.ID.
	Nodes map[string]*Node
	// Decls lists the nodes with bodies in package and source order.
	Decls []*Node
}

// Node is one function or method.
type Node struct {
	// ID is the node's program-wide identity: the FullName of the
	// function's generic origin.
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

// Edge is one call site.
type Edge struct {
	Pos    token.Pos
	Callee *Node
	Context
}

// Context is what a call site inherits from its enclosing statements.
type Context struct {
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

// Build returns the program's call graph.
func Build(prog *analysis.Program) *Graph {
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
				// through an importing unit's export data; rebind Func to
				// the declaring unit's object so signature-derived objects
				// (parameters, results) match n.Pkg.TypesInfo.
				n.Func = fn
				n.Blocking = blockingOps(pkg.TypesInfo, fd.Body)
				g.Decls = append(g.Decls, n)
				c := &collector{g: g, pkg: pkg, caller: n, iface: &calls}
				c.walkBody(fd.Body, Context{})
			}
		}
	}
	g.fanOut(calls)
	return g
}

func (g *Graph) nodeFor(fn *types.Func) *Node {
	// Generic instantiations share their origin's declaration.
	fn = fn.Origin()
	id := fn.FullName()
	if n, ok := g.Nodes[id]; ok {
		return n
	}
	n := &Node{ID: id, Func: fn}
	g.Nodes[id] = n
	return n
}

// ifaceCall is a deferred interface-method call awaiting fan-out once
// the whole program's type set is known.
type ifaceCall struct {
	caller *Node
	pos    token.Pos
	method *types.Func // the abstract interface method
	iface  *types.Interface
	fl     Context
}

type collector struct {
	g      *Graph
	pkg    *analysis.ProgramPackage
	caller *Node
	iface  *[]ifaceCall
}

// walkBody visits n, classifying every call expression under the
// current context.
func (c *collector) walkBody(n ast.Node, fl Context) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.GoStmt:
			c.visitCall(node.Call, Context{Go: true, InPanic: fl.InPanic, InClosure: fl.InClosure})
			return false
		case *ast.DeferStmt:
			c.visitCall(node.Call, Context{Defer: true, Go: fl.Go, InPanic: fl.InPanic, InClosure: fl.InClosure})
			return false
		case *ast.CallExpr:
			c.visitCall(node, fl)
			return false
		case *ast.FuncLit:
			next := fl
			next.InClosure = true
			c.walkBody(node.Body, next)
			return false
		}
		return true
	})
}

// visitCall records the call's edge (when resolvable) and walks its
// operands.
func (c *collector) visitCall(call *ast.CallExpr, fl Context) {
	info := c.pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Builtins: panic marks its arguments cold; the rest are not calls
	// in the graph's sense.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			argFl := fl
			if b.Name() == "panic" {
				argFl.InPanic = true
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
			c.edge(call.Lparen, fn, fl)
			c.walkArgs(call, fl)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if iface, ok := types.Unalias(sel.Recv()).Underlying().(*types.Interface); ok {
					*c.iface = append(*c.iface, ifaceCall{caller: c.caller, pos: call.Lparen, method: fn, iface: iface, fl: fl})
				} else {
					c.edge(call.Lparen, fn, fl)
				}
				c.walkBody(fun.X, fl)
				c.walkArgs(call, fl)
				return
			}
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Qualified call pkg.F(x): no selection entry.
			c.edge(call.Lparen, fn, fl)
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

func (c *collector) walkArgs(call *ast.CallExpr, fl Context) {
	for _, arg := range call.Args {
		c.walkBody(arg, fl)
	}
}

func (c *collector) edge(pos token.Pos, fn *types.Func, fl Context) {
	c.caller.Out = append(c.caller.Out, Edge{Pos: pos, Callee: c.g.nodeFor(fn), Context: fl})
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
		ic.caller.Out = append(ic.caller.Out, Edge{Pos: ic.pos, Callee: g.nodeFor(ic.method), Context: ic.fl})
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
			ic.caller.Out = append(ic.caller.Out, Edge{Pos: ic.pos, Callee: g.nodeFor(fn), Context: ic.fl})
		}
	}
}

// programTypes returns every named non-interface type declared in a
// loaded package, in package and source order. Each declaration is in
// exactly one unit, so no type appears twice.
func (g *Graph) programTypes() []types.Type {
	var out []types.Type
	for _, pkg := range g.Prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if tn, ok := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
					out = append(out, tn.Type())
				}
				return true
			})
		}
	}
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
