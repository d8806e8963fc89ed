// Package lockorder checks the repo's lock-ordering and
// hold-while-blocking contracts over the whole-program call graph.
//
// The lock universe is the set of annotated mutexes: sync.Mutex or
// sync.RWMutex struct fields that at least one sibling field declares
// itself "guarded by" (the same annotation lockguard enforces). For the
// repo today that is Server.mu, replay's decodeAhead.mu, and the
// journal's Log.mu and FaultInjector.mu.
//
// For every function body the analyzer runs a source-order held-set
// scan: x.mu.Lock()/RLock() opens a held interval, x.mu.Unlock()/RUnlock()
// closes it, and defer x.mu.Unlock() holds it to the end of the body.
// Methods that run with their receiver's lock already held — the
// "Locked" name suffix or //kairos:locked directive, lockguard's
// convention — start with that lock held. Within a held interval the
// analyzer reports:
//
//   - a re-acquisition of the held lock (self-deadlock: the repo's
//     mutexes are not reentrant);
//   - any acquisition edge L → M that participates in a cycle of the
//     program-wide acquisition-order graph, where M may be acquired
//     directly or transitively through any statically-reachable callee
//     (go statements and panic arguments excluded: those do not run
//     nested under the lock);
//   - a blocking operation — channel send/receive, range over a
//     channel, select without default — or a call that transitively
//     reaches one, including the known-blocking stdlib surface
//     (sync.WaitGroup.Wait, sync.Cond.Wait, and the blocking net/http
//     entry points).
//
// Calls through function values are NOT treated as acquiring or
// blocking (the graph cannot resolve them); interface calls use the
// conservative fan-out, so a possible implementor that blocks taints
// the call site.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/callgraph"
	"kairos/internal/lint/lintutil"
)

// Marker mirrors lockguard's directive for methods that run with the
// receiver's lock held.
const Marker = "kairos:locked"

var Analyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "reports lock-order cycles and blocking operations reached under annotated mutexes",
	RunProgram: run,
}

// lockID is a program-wide lock identity: the declaring type's
// package path and name plus the mutex field name, "pkg/path.Type.mu".
type lockID string

// lock is one annotated mutex.
type lock struct {
	id      lockID
	display string // pkg.Type.field, for messages
}

// orderEdge is one observed acquisition order: to was acquired (possibly
// through calls) while from was held.
type orderEdge struct {
	from, to lockID
	pos      token.Pos
	via      string // "" for direct acquisition, else the callee's name
}

type checker struct {
	prog  *analysis.Program
	graph *callgraph.Graph
	// locks indexes annotated mutexes by ID.
	locks map[lockID]*lock
	// typeLocks lists the annotated mutexes of each struct type, by
	// typeKey.
	typeLocks map[string][]*lock
	// acquires and blocks are per-node transitive summaries.
	acquires map[*callgraph.Node]map[lockID]bool
	blocks   map[*callgraph.Node]string // "" when the node cannot block
	edges    []orderEdge
}

func run(prog *analysis.Program) error {
	c := &checker{
		prog:      prog,
		graph:     callgraph.Build(prog),
		locks:     map[lockID]*lock{},
		typeLocks: map[string][]*lock{},
		acquires:  map[*callgraph.Node]map[lockID]bool{},
		blocks:    map[*callgraph.Node]string{},
	}
	c.collectLocks()
	if len(c.locks) == 0 {
		return nil
	}
	for _, n := range c.graph.Decls {
		c.summarize(n, nil)
	}
	for _, n := range c.graph.Decls {
		c.scanBody(n)
	}
	c.reportCycles()
	return nil
}

// collectLocks builds the annotated-mutex universe from every struct
// type declaration in the program.
func (c *checker) collectLocks() {
	for _, pkg := range c.prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					c.collectStructLocks(pkg, ts, st)
				}
			}
		}
	}
}

func (c *checker) collectStructLocks(pkg *analysis.ProgramPackage, ts *ast.TypeSpec, st *ast.StructType) {
	tn, ok := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	// Mutex fields referenced by at least one sibling guarded-by comment.
	wanted := map[string]bool{}
	for _, field := range st.Fields.List {
		if mu, ok := lintutil.GuardedBy(field.Doc, field.Comment); ok {
			wanted[mu] = true
		}
	}
	if len(wanted) == 0 {
		return
	}
	key := typeKey(tn)
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if !wanted[name.Name] || !isMutex(pkg.TypesInfo.TypeOf(field.Type)) {
				continue
			}
			l := &lock{
				id:      lockID(key + "." + name.Name),
				display: fmt.Sprintf("%s.%s.%s", tn.Pkg().Name(), tn.Name(), name.Name),
			}
			if _, dup := c.locks[l.id]; dup {
				continue
			}
			c.locks[l.id] = l
			c.typeLocks[key] = append(c.typeLocks[key], l)
		}
	}
}

// typeKey names a type the same way in every unit: "pkg/path.Type".
func typeKey(tn *types.TypeName) string {
	return tn.Pkg().Path() + "." + tn.Name()
}

// namedOf strips aliases and one pointer to reach a defined type, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

// isMutex accepts sync.Mutex, sync.RWMutex and pointers to them.
func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockOp classifies one mutex method call inside a body.
type lockOp struct {
	l       *lock
	pos     token.Pos
	acquire bool
	deferrd bool
}

// opsOf extracts the body's annotated-mutex operations in source order,
// skipping closure interiors and go statements (their effects are not
// nested under this body's locks).
func (c *checker) opsOf(n *callgraph.Node) []lockOp {
	var out []lockOp
	info := n.Pkg.TypesInfo
	var walk func(ast.Node, bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.DeferStmt:
				walk(node.Call, true)
				return false
			case *ast.CallExpr:
				if op, ok := c.asLockOp(info, node); ok {
					op.deferrd = deferred
					out = append(out, *op)
				}
			}
			return true
		})
	}
	walk(n.Decl.Body, false)
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// asLockOp matches x.f.Lock()/RLock()/Unlock()/RUnlock() where (type of
// x, f) is an annotated mutex.
func (c *checker) asLockOp(info *types.Info, call *ast.CallExpr) (*lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false
	}
	muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	l := c.lockOf(info, muSel)
	if l == nil {
		return nil, false
	}
	return &lockOp{l: l, pos: call.Pos(), acquire: acquire}, true
}

// lockOf resolves base.field to an annotated mutex, or nil.
func (c *checker) lockOf(info *types.Info, muSel *ast.SelectorExpr) *lock {
	base := info.TypeOf(muSel.X)
	if base == nil {
		return nil
	}
	named := namedOf(base)
	if named == nil {
		return nil
	}
	return c.locks[lockID(typeKey(named.Obj())+"."+muSel.Sel.Name)]
}

// entryHeld returns the locks a function holds on entry per lockguard's
// convention: the receiver's annotated mutexes, for methods with the
// Locked suffix or the //kairos:locked directive.
func (c *checker) entryHeld(n *callgraph.Node) []*lock {
	if !strings.HasSuffix(n.Func.Name(), "Locked") && !lintutil.HasMarker(n.Decl.Doc, Marker) {
		return nil
	}
	recv := n.Func.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	named := namedOf(recv.Type())
	if named == nil {
		return nil
	}
	return c.typeLocks[typeKey(named.Obj())]
}

// summarize computes the node's transitive may-acquire set and blocking
// witness, optimistically treating in-progress nodes (recursion) as
// empty — the fixpoint converges because sets only grow along the DFS.
func (c *checker) summarize(n *callgraph.Node, stack map[*callgraph.Node]bool) (map[lockID]bool, string) {
	if acq, done := c.acquires[n]; done {
		return acq, c.blocks[n]
	}
	if stack[n] {
		return nil, ""
	}
	if stack == nil {
		stack = map[*callgraph.Node]bool{}
	}
	stack[n] = true
	defer delete(stack, n)

	acq := map[lockID]bool{}
	block := ""
	if n.Decl != nil {
		for _, op := range c.opsOf(n) {
			if op.acquire {
				acq[op.l.id] = true
			}
		}
		if len(n.Blocking) > 0 {
			block = fmt.Sprintf("%s at %s", n.Blocking[0].What, c.prog.Fset.Position(n.Blocking[0].Pos))
		}
	} else if w := knownBlocking(n.Func); w != "" {
		block = w
	}
	for _, e := range n.Out {
		if e.Go || e.InPanic {
			continue
		}
		subAcq, subBlock := c.summarize(e.Callee, stack)
		for id := range subAcq {
			acq[id] = true
		}
		if block == "" && subBlock != "" {
			block = fmt.Sprintf("%s, via %s", subBlock, e.Callee.Func.Name())
		}
	}
	c.acquires[n] = acq
	c.blocks[n] = block
	return acq, block
}

// knownBlocking reports why a body-less callee is considered blocking.
func knownBlocking(fn *types.Func) string {
	full := fn.FullName()
	switch full {
	case "(*sync.WaitGroup).Wait", "(*sync.Cond).Wait":
		return full
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
		switch fn.Name() {
		case "Do", "Get", "Post", "Head", "PostForm",
			"ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS", "Shutdown":
			return full
		}
	}
	return ""
}

// scanBody runs the held-interval scan over one function.
func (c *checker) scanBody(n *callgraph.Node) {
	type interval struct {
		l          *lock
		start, end token.Pos
	}
	var held []*interval
	open := map[lockID]*interval{}
	bodyEnd := n.Decl.Body.End()

	for _, l := range c.entryHeld(n) {
		iv := &interval{l: l, start: n.Decl.Body.Pos(), end: bodyEnd}
		held = append(held, iv)
		open[l.id] = iv
	}
	for _, op := range c.opsOf(n) {
		switch {
		case op.acquire:
			if prev, isOpen := open[op.l.id]; isOpen && prev.end == bodyEnd && prev.start <= op.pos {
				c.prog.Reportf(op.pos, "%s is already held here — re-acquiring it self-deadlocks", op.l.display)
				continue
			}
			iv := &interval{l: op.l, start: op.pos, end: bodyEnd}
			held = append(held, iv)
			open[op.l.id] = iv
		case op.deferrd:
			// defer mu.Unlock(): held to the end of the body; the open
			// interval already says so.
		default:
			if iv, isOpen := open[op.l.id]; isOpen && iv.end == bodyEnd {
				iv.end = op.pos
				delete(open, op.l.id)
			}
		}
	}

	heldAt := func(pos token.Pos) []*interval {
		var out []*interval
		for _, iv := range held {
			if iv.start < pos && pos < iv.end {
				out = append(out, iv)
			}
		}
		return out
	}

	// Direct acquisitions while another lock is held → order edges.
	for _, op := range c.opsOf(n) {
		if !op.acquire {
			continue
		}
		for _, iv := range heldAt(op.pos) {
			if iv.l.id != op.l.id {
				c.edges = append(c.edges, orderEdge{from: iv.l.id, to: op.l.id, pos: op.pos})
			}
		}
	}
	// Blocking operations while any lock is held.
	for _, b := range n.Blocking {
		for _, iv := range heldAt(b.Pos) {
			c.prog.Reportf(b.Pos, "%s while holding %s — a blocked %s stalls every contender",
				b.What, iv.l.display, iv.l.display)
			break
		}
	}
	// Calls while held: transitive acquisition order and blocking.
	for _, e := range n.Out {
		if e.Go || e.InPanic || e.InClosure || e.Defer {
			continue
		}
		ivs := heldAt(e.Pos)
		if len(ivs) == 0 {
			continue
		}
		subAcq := c.acquires[e.Callee]
		for _, iv := range ivs {
			for id := range subAcq {
				if id != iv.l.id {
					c.edges = append(c.edges, orderEdge{from: iv.l.id, to: id, pos: e.Pos, via: e.Callee.Func.Name()})
				} else {
					c.prog.Reportf(e.Pos, "call to %s may re-acquire %s, which is held here",
						e.Callee.Func.Name(), iv.l.display)
				}
			}
			if w := c.blocks[e.Callee]; w != "" {
				c.prog.Reportf(e.Pos, "call to %s may block (%s) while holding %s",
					e.Callee.Func.Name(), w, iv.l.display)
			}
		}
	}
}

// reportCycles finds cycles in the acquisition-order graph and reports
// every edge on one.
func (c *checker) reportCycles() {
	succ := map[lockID]map[lockID]bool{}
	for _, e := range c.edges {
		if succ[e.from] == nil {
			succ[e.from] = map[lockID]bool{}
		}
		succ[e.from][e.to] = true
	}
	reaches := func(from, to lockID) bool {
		seen := map[lockID]bool{from: true}
		for stack := []lockID{from}; len(stack) > 0; {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur == to {
				return true
			}
			for next := range succ[cur] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	reported := map[orderEdge]bool{}
	sorted := append([]orderEdge{}, c.edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].pos < sorted[j].pos })
	for _, e := range sorted {
		if reported[e] || !reaches(e.to, e.from) {
			continue
		}
		reported[e] = true
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (via %s)", e.via)
		}
		c.prog.Reportf(e.pos, "lock-order cycle: %s acquired while holding %s%s, but the reverse order also occurs — potential deadlock",
			c.locks[e.to].display, c.locks[e.from].display, via)
	}
}
