// Def-use chains over the CFG: which writes to a local variable can
// ever be read? errflow uses this to flag error values that are
// overwritten before anything looks at them — the classic
// `err = f(); err = g()` slip that silently drops f's failure.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadWrite is one write whose value is overwritten on every path
// before any read.
type DeadWrite struct {
	// Var is the variable written.
	Var *types.Var
	// Pos is the dead write's position (the assigned identifier).
	Pos token.Pos
	// KillPos is one of the later writes that overwrites it.
	KillPos token.Pos
}

// eventKind classifies one appearance of a tracked variable.
type eventKind int

const (
	evRead eventKind = iota
	evWrite
	evReadWrite // compound assignment, ++/--
	evEscape    // address taken or captured by a closure
)

type event struct {
	kind eventKind
	obj  *types.Var
	pos  token.Pos
}

// DeadWrites scans the CFG's blocks for writes to local variables
// selected by keep whose value is, on every path, overwritten before
// any read. Variables whose address is taken or that are captured by a
// closure are skipped entirely (a read can happen through the alias at
// any time), as are writes that a loop back-edge overwrites with
// themselves (`for { err = f() }` re-running is not a drop). A write
// whose value simply survives to function exit unread is NOT reported —
// that is a different (and much noisier) property than being
// overwritten.
func (c *CFG) DeadWrites(info *types.Info, keep func(*types.Var) bool) []DeadWrite {
	events := make([][]event, len(c.Blocks))
	escaped := map[*types.Var]bool{}
	for _, blk := range c.Blocks {
		for _, atom := range blk.Nodes {
			collectEvents(info, atom, keep, &events[blk.Index], escaped)
		}
	}

	var out []DeadWrite
	for _, blk := range c.Blocks {
		if !c.reach[blk.Index] {
			continue
		}
		evs := events[blk.Index]
		for i, ev := range evs {
			if ev.kind != evWrite || escaped[ev.obj] {
				continue
			}
			if kill, dead := c.writeIsDead(events, blk, i, ev); dead && kill != ev.pos {
				out = append(out, DeadWrite{Var: ev.obj, Pos: ev.pos, KillPos: kill})
			}
		}
	}
	return out
}

// writeIsDead searches forward from the write at events[blk][idx]. It
// returns dead=true only when every path from the write reaches another
// write of the same variable before any read, and no path reaches the
// function exit untouched.
func (c *CFG) writeIsDead(events [][]event, blk *Block, idx int, w event) (kill token.Pos, dead bool) {
	// Rest of the write's own block first.
	for _, ev := range events[blk.Index][idx+1:] {
		if ev.obj != w.obj {
			continue
		}
		switch ev.kind {
		case evRead, evReadWrite, evEscape:
			return token.NoPos, false
		case evWrite:
			return ev.pos, true
		}
	}
	// BFS over successors. Every frontier path must end in a kill.
	seen := map[*Block]bool{blk: true}
	queue := append([]*Block{}, blk.Succs...)
	killed := false
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if seen[b] {
			continue
		}
		seen[b] = true
		found := false
		for _, ev := range events[b.Index] {
			if ev.obj != w.obj {
				continue
			}
			switch ev.kind {
			case evRead, evReadWrite, evEscape:
				return token.NoPos, false
			case evWrite:
				if kill == token.NoPos {
					kill = ev.pos
				}
				killed = true
			}
			found = true
			break
		}
		if found {
			continue
		}
		if b == c.Exit {
			// The value survives to exit unread: not "overwritten".
			return token.NoPos, false
		}
		queue = append(queue, b.Succs...)
	}
	return kill, killed
}

// collectEvents walks one atom and appends the reads, writes and
// escapes of tracked variables, in evaluation order (RHS before LHS for
// assignments). Closure interiors turn every captured tracked variable
// into an escape.
func collectEvents(info *types.Info, n ast.Node, keep func(*types.Var) bool, out *[]event, escaped map[*types.Var]bool) {
	tracked := func(id *ast.Ident) *types.Var {
		if id == nil || id.Name == "_" {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || !keep(v) {
			return nil
		}
		return v
	}

	var walk func(n ast.Node, write bool)
	walk = func(n ast.Node, write bool) {
		switch n := n.(type) {
		case nil:
		case *ast.Ident:
			if v := tracked(n); v != nil {
				kind := evRead
				if write {
					kind = evWrite
				}
				*out = append(*out, event{kind: kind, obj: v, pos: n.Pos()})
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				walk(rhs, false)
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					walk(lhs, false) // *p, s.f, a[i]: reads of their parts
					continue
				}
				if v := tracked(id); v != nil {
					kind := evWrite
					if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
						kind = evReadWrite // +=, &=, ...
					}
					*out = append(*out, event{kind: kind, obj: v, pos: id.Pos()})
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok {
				if v := tracked(id); v != nil {
					*out = append(*out, event{kind: evReadWrite, obj: v, pos: id.Pos()})
				}
				return
			}
			walk(n.X, false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v := tracked(id); v != nil {
						*out = append(*out, event{kind: evEscape, obj: v, pos: id.Pos()})
						escaped[v] = true
						return
					}
				}
			}
			walk(n.X, false)
		case *ast.FuncLit:
			// Captured variables escape: the closure may read or write
			// them at any later point.
			ast.Inspect(n.Body, func(child ast.Node) bool {
				if id, ok := child.(*ast.Ident); ok {
					if v := tracked(id); v != nil {
						*out = append(*out, event{kind: evEscape, obj: v, pos: id.Pos()})
						escaped[v] = true
					}
				}
				return true
			})
		case *ast.ValueSpec:
			// `var err error = f()` writes; a bare `var err error` only
			// zero-initializes — overwriting a zero value drops nothing.
			for _, val := range n.Values {
				walk(val, false)
			}
			if len(n.Values) > 0 {
				for _, id := range n.Names {
					if v := tracked(id); v != nil {
						*out = append(*out, event{kind: evWrite, obj: v, pos: id.Pos()})
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					walk(spec, false)
				}
			}
		case *ast.KeyValueExpr:
			// Struct-literal keys resolve to field objects, which
			// tracked() excludes; map-literal keys are real reads.
			walk(n.Key, false)
			walk(n.Value, false)
		case *ast.SelectorExpr:
			walk(n.X, false) // n.Sel is a field/method name
		default:
			// Generic traversal for everything else, one level at a
			// time so the special cases above keep applying below.
			var children []ast.Node
			ast.Inspect(n, func(child ast.Node) bool {
				if child == nil || child == n {
					return child == n
				}
				children = append(children, child)
				return false
			})
			for _, child := range children {
				walk(child, false)
			}
		}
	}
	walk(n, false)
}
