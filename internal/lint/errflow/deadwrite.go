package errflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"kairos/internal/lint/analysis"
)

// deadScan finds the dead writes to one body's error locals: every path
// from the write meets an unconditional rewrite before any read. From a
// write it scans the rest of the write's statement list, then the rest
// of each enclosing list up to the nearest loop or function body. A
// plain assignment is a rewrite, and so is an if/else or a switch with a
// default whose every branch rewrites. A read, a loop, a statement that
// can leave the path (a return, branch statement or panic inside it) or
// the end of the loop or function body stops the scan with no report: a
// value that survives unread was not overwritten. Locals whose address
// is taken or that a closure mentions are skipped (a read can happen
// through the alias at any time), as are writes after a terminating
// statement (dead code drops no error at runtime).
type deadScan struct {
	pass *analysis.Pass
	body *ast.BlockStmt
	skip map[types.Object]bool
}

type verdict int

const (
	open      verdict = iota // the path goes on without touching the value
	rewritten                // every path rewrites it before a read
	blocked                  // a path reads it, loops or leaves
)

// checkDeadErrorWrites runs the overwritten-before-read rule over every
// function and closure body.
func checkDeadErrorWrites(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body == nil {
			return true
		}
		d := &deadScan{pass: pass, body: body, skip: map[types.Object]bool{}}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					d.skip[d.obj(ast.Unparen(n.X))] = true
				}
			case *ast.FuncLit:
				ast.Inspect(n.Body, func(m ast.Node) bool { d.skip[d.obj(m)] = true; return true })
			}
			return true
		})
		d.walk(body.List, nil)
		return true
	})
}

// obj returns the object n names if it is an identifier, else nil.
func (d *deadScan) obj(n ast.Node) types.Object {
	id, _ := n.(*ast.Ident)
	return d.pass.TypesInfo.ObjectOf(id)
}

// walk checks the writes in stmts. outer holds the rest of each
// enclosing list, innermost last: where a path goes when stmts ends.
func (d *deadScan) walk(stmts []ast.Stmt, outer [][]ast.Stmt) {
	for i, s := range stmts {
		rest := append(outer[:len(outer):len(outer)], stmts[i+1:])
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
					d.check(lhs, rest)
				}
			}
		case *ast.DeclStmt:
			// `var err error = f()` writes; a bare `var err error` only
			// zero-initializes, and overwriting a zero value drops nothing.
			for _, spec := range s.Decl.(*ast.GenDecl).Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					for _, id := range vs.Names {
						d.check(id, rest)
					}
				}
			}
		case *ast.ForStmt:
			d.walk(s.Body.List, nil)
		case *ast.RangeStmt:
			d.walk(s.Body.List, nil)
		default:
			for _, b := range branches(s) {
				d.walk(b, rest)
			}
		}
		if d.terminates(s) {
			return
		}
	}
}

// check reports the write to lhs if it is to a tracked local and dead.
func (d *deadScan) check(lhs ast.Expr, rest [][]ast.Stmt) {
	v, ok := d.obj(lhs).(*types.Var)
	if !ok || d.skip[v] || !isErrorType(v.Type()) || v.Pos() < d.body.Pos() || v.Pos() >= d.body.End() {
		return // only this body's locals: an outer one has reads this scan cannot see
	}
	for j := len(rest) - 1; j >= 0; j-- {
		switch kill, vd := d.scan(v, rest[j]); vd {
		case rewritten:
			d.pass.Reportf(lhs.Pos(), "%s is overwritten at line %d before this value is ever read — the first error is lost",
				v.Name(), d.pass.Fset.Position(kill).Line)
			return
		case blocked:
			return
		}
	}
}

func (d *deadScan) scan(v types.Object, stmts []ast.Stmt) (token.Pos, verdict) {
	for _, s := range stmts {
		if kill, vd := d.effect(v, s); vd != open {
			return kill, vd
		}
	}
	return token.NoPos, open
}

func (d *deadScan) effect(v types.Object, s ast.Stmt) (token.Pos, verdict) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			break
		}
		for _, rhs := range s.Rhs {
			if d.mentions(v, rhs) {
				return token.NoPos, blocked
			}
		}
		for _, lhs := range s.Lhs {
			if d.obj(lhs) == v {
				return lhs.Pos(), rewritten
			}
		}
	case *ast.BlockStmt, *ast.LabeledStmt:
		return d.scan(v, branches(s)[0])
	case *ast.IfStmt:
		if !d.mentions(v, s.Init, s.Cond) {
			return d.join(v, branches(s), s.Else != nil)
		}
	case *ast.SwitchStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			for _, e := range c.(*ast.CaseClause).List {
				if d.mentions(v, e) {
					return token.NoPos, blocked
				}
			}
			hasDefault = hasDefault || c.(*ast.CaseClause).List == nil
		}
		if !d.mentions(v, s.Init, s.Tag) {
			return d.join(v, branches(s), hasDefault)
		}
	}
	leaves := contains(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt, *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.SelectStmt:
			return len(n.Body.List) == 0
		}
		return d.isPanic(n)
	})
	if leaves || d.mentions(v, s) {
		return token.NoPos, blocked
	}
	return token.NoPos, open
}

// join combines the verdicts of a statement's branches; exhaustive says
// one of them always runs.
func (d *deadScan) join(v types.Object, branches [][]ast.Stmt, exhaustive bool) (token.Pos, verdict) {
	kill := token.NoPos
	for _, b := range branches {
		switch k, vd := d.scan(v, b); {
		case vd == blocked:
			return token.NoPos, blocked
		case vd == open:
			exhaustive = false
		case kill == token.NoPos:
			kill = k
		}
	}
	if exhaustive {
		return kill, rewritten
	}
	return token.NoPos, open
}

// terminates reports whether the rest of s's list is dead code: s is a
// branch statement or terminating in the Go spec's sense. A for holding
// any break, and every switch and select, count as not terminating.
func (d *deadScan) terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		return d.isPanic(s.X)
	case *ast.BlockStmt:
		return len(s.List) > 0 && d.terminates(s.List[len(s.List)-1])
	case *ast.LabeledStmt:
		return d.terminates(s.Stmt)
	case *ast.IfStmt:
		return s.Else != nil && d.terminates(s.Body) && d.terminates(s.Else)
	case *ast.ForStmt:
		return s.Cond == nil && !contains(s.Body, func(n ast.Node) bool {
			b, ok := n.(*ast.BranchStmt)
			return ok && b.Tok == token.BREAK
		})
	}
	return false
}

func (d *deadScan) mentions(v types.Object, nodes ...ast.Node) bool {
	for _, n := range nodes {
		if contains(n, func(m ast.Node) bool { return d.obj(m) == v }) {
			return true
		}
	}
	return false
}

func (d *deadScan) isPanic(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	b, ok := d.obj(ast.Unparen(call.Fun)).(*types.Builtin)
	return ok && b.Name() == "panic"
}

// branches returns the statement lists of which s runs one in place: a
// block's or a labeled statement's, an if's arms (the else as a
// one-statement list), a switch's or select's clauses.
func branches(s ast.Stmt) [][]ast.Stmt {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{s.List}
	case *ast.LabeledStmt:
		return [][]ast.Stmt{{s.Stmt}}
	case *ast.IfStmt:
		if s.Else == nil {
			return [][]ast.Stmt{s.Body.List}
		}
		return [][]ast.Stmt{s.Body.List, {s.Else}}
	case *ast.SwitchStmt:
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var out [][]ast.Stmt
	for _, c := range clauses {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		} else {
			out = append(out, c.(*ast.CommClause).Body)
		}
	}
	return out
}

// contains reports whether pred holds for root or a node under it,
// closure bodies excluded.
func contains(root ast.Node, pred func(ast.Node) bool) bool {
	found := false
	if root != nil {
		ast.Inspect(root, func(n ast.Node) bool {
			_, lit := n.(*ast.FuncLit)
			found = found || (n != nil && !lit && pred(n))
			return !found && !lit
		})
	}
	return found
}
