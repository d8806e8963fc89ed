// Package ctxflow enforces the repo's context-threading discipline, the
// contract that lets `kairos serve` shutdown cancel in-flight solves:
//
//   - Library code (any non-main package) must not call
//     context.Background() or context.TODO(): the context comes from the
//     caller, all the way down from the entry point that owns it.
//     Test files are exempt — a test IS an entry point. Deliberate roots
//     (deprecated wrappers, a server's lifecycle context) carry a
//     //kairoslint:allow ctxflow: <reason> waiver.
//   - A function that HAS a context.Context parameter must thread it:
//     calling context.Background()/TODO() there is always a bug, in any
//     package — the fresh context silently detaches the callee from the
//     caller's cancellation. (These sites are exactly how the solver
//     stack ignored `kairos serve -grace` before the Solve/Resolve/
//     SolveSharded signatures grew a ctx.)
//   - A function whose context parameter is entirely unused while some
//     callee accepts a context has dropped the thread — reported at the
//     declaration. The callees are the ones the type checker resolves:
//     direct calls, method calls and interface method calls (an
//     interface method has its implementations' signature), but not
//     calls through function values or inside a panic argument.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"kairos/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "requires context.Context to be threaded, not re-rooted with context.Background",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	inMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				checkFunc(pass, fd, fn, inMain)
			}
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, fn *types.Func, inMain bool) {
	info := pass.TypesInfo
	ctxParams := ctxParamsOf(fn)

	// Roots: context.Background()/TODO() calls in the body.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := rootCtxCall(info, call)
		if name == "" {
			return true
		}
		switch {
		case len(ctxParams) > 0:
			pass.Reportf(call.Pos(), "%s discards the function's ctx parameter — thread it instead", name)
		case !inMain:
			pass.Reportf(call.Pos(), "%s in library code — accept a context.Context and thread the caller's", name)
		}
		return true
	})

	// Dropped thread: ctx parameter never used, yet a callee accepts one.
	if len(ctxParams) == 0 {
		return
	}
	for _, p := range ctxParams {
		if p.Name() == "_" {
			return // explicitly discarded; lockguard-style conventions don't apply
		}
	}
	used := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		if id, ok := node.(*ast.Ident); ok {
			used[info.Uses[id]] = true
		}
		return true
	})
	for _, p := range ctxParams {
		if used[p] {
			return
		}
	}
	if callee := ctxCallee(info, fd.Body); callee != nil {
		pass.Reportf(fd.Pos(), "ctx parameter is unused, but callee %s accepts a context — the thread is dropped here",
			callee.Name())
	}
}

// ctxCallee returns the first function the body calls that accepts a
// context, skipping panic arguments, or nil.
func ctxCallee(info *types.Info, body *ast.BlockStmt) *types.Func {
	var found *types.Func
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || found != nil {
			return found == nil
		}
		var obj types.Object
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			obj = info.Uses[fun]
		case *ast.SelectorExpr:
			obj = info.Uses[fun.Sel]
		}
		if b, ok := obj.(*types.Builtin); ok && b.Name() == "panic" {
			return false
		}
		if fn, ok := obj.(*types.Func); ok && acceptsCtx(fn) {
			found = fn
		}
		return found == nil
	})
	return found
}

// ctxParamsOf returns the function's context.Context parameters.
func ctxParamsOf(fn *types.Func) []*types.Var {
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			out = append(out, sig.Params().At(i))
		}
	}
	return out
}

// rootCtxCall matches context.Background() / context.TODO(), returning
// the rendered name or "".
func rootCtxCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return "context." + fn.Name() + "()"
	}
	return ""
}

// acceptsCtx reports whether any parameter of fn is a context.Context.
func acceptsCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isCtxType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
