// Package errflow enforces the repo's error-handling discipline with
// dataflow rather than style rules: an error value, once produced, must
// be checked, propagated, logged, or *visibly* waived. Four shapes are
// findings in non-test files (tests assert through their own helpers):
//
//   - `_ = f()` and `v, _ := f()` where the blank swallows an error —
//     a silent drop that a //kairoslint:allow errflow: <reason> waiver
//     must make loud if it is intentional.
//   - An expression statement whose call returns an error nobody binds.
//     fmt printing and the never-failing in-memory writers
//     (strings.Builder, bytes.Buffer) are exempt.
//   - An error variable overwritten before anything reads it:
//     `err = f(); err = g()` silently discards f's failure (deadwrite.go
//     says which paths count). This rule runs in test files too — a
//     test that drops the first error asserts the wrong thing.
//   - `defer x.Close()` dropping the close error. For read paths a
//     waiver with a reason is fine; for write paths the error is the
//     fsync result and dropping it is a durability bug.
package errflow

import (
	"go/ast"
	"go/types"
	"strings"

	"kairos/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "requires produced errors to be checked, propagated, logged, or visibly waived",
	Run:  run,
}

var errorType = types.Universe.Lookup("error").Type()

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		inTest := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		if !inTest {
			checkDiscards(pass, file)
			checkDroppedResults(pass, file)
			checkDeferredClose(pass, file)
		}
		checkDeadErrorWrites(pass, file)
	}
	return nil, nil
}

// checkDiscards flags blank-identifier assignments that swallow an
// error: `_ = f()` and the error position of `v, _ := f()`.
func checkDiscards(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != "_" {
				continue
			}
			if isErrorType(discardedType(pass.TypesInfo, as, i)) {
				pass.Reportf(id.Pos(), "error discarded with _ — check it, return it, or waive with a reason")
			}
		}
		return true
	})
}

// discardedType resolves the type flowing into LHS position i.
func discardedType(info *types.Info, as *ast.AssignStmt, i int) types.Type {
	if len(as.Rhs) == len(as.Lhs) {
		return info.TypeOf(as.Rhs[i])
	}
	if len(as.Rhs) != 1 {
		return nil
	}
	t := info.TypeOf(as.Rhs[0])
	tup, ok := t.(*types.Tuple)
	if !ok || i >= tup.Len() {
		return nil
	}
	return tup.At(i).Type()
}

// checkDroppedResults flags expression statements whose call returns an
// error nobody binds. go/defer statements are excluded (go discards by
// construction; deferred Close has its own rule), as are fmt's printers
// and the in-memory writers whose errors are documented always-nil.
func checkDroppedResults(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(es.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		if !returnsError(pass.TypesInfo, call) || exemptDrop(pass.TypesInfo, call) {
			return true
		}
		pass.Reportf(call.Pos(), "call drops its error result — check it, return it, or waive with a reason")
		return true
	})
}

// returnsError reports whether the call produces an error value.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// exemptDrop exempts callees whose dropped error is idiomatic: fmt's
// print family (diagnostics), and methods of strings.Builder /
// bytes.Buffer, which are documented to never fail.
func exemptDrop(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	if s, ok := info.Selections[sel]; ok {
		recv := s.Recv()
		if p, ok := types.Unalias(recv).Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := types.Unalias(recv).(*types.Named); ok && named.Obj().Pkg() != nil {
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			if key == "strings.Builder" || key == "bytes.Buffer" {
				return true
			}
		}
	}
	return false
}

// checkDeferredClose flags `defer x.Close()` when Close returns an
// error: the deferred error vanishes. Wrap it (defer func() { ... }())
// or waive with a reason stating why the close error carries no data.
func checkDeferredClose(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(ds.Call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if returnsError(pass.TypesInfo, ds.Call) {
			pass.Reportf(ds.Defer, "deferred Close drops its error — handle it in a deferred closure or waive with a reason")
		}
		return true
	})
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
