// Package lockguard checks the repo's mutex-guard annotations: a struct
// field whose declaration carries a "guarded by <mu>" comment may only be
// read or written in functions that demonstrably hold the sibling mutex.
//
// The check is intra-procedural and syntactic by design (no may-alias or
// lockset dataflow): an access to x.field is accepted when the enclosing
// top-level function contains an earlier x.<mu>.Lock() or x.<mu>.RLock()
// call on the same base expression. Functions that run with the lock
// already held declare it by naming convention (a trailing "Locked"
// suffix, e.g. detectLocked) or with a //kairos:locked doc directive —
// the same contract the repo's "callers hold mu" comments always meant,
// now machine-checked. Individual accesses can be waived with
// //kairoslint:allow lockguard.
//
// The annotation itself is validated too: the named mutex must exist as a
// sibling field of sync.Mutex or sync.RWMutex type.
//
// Shared counters and flags outside a mutex are typed atomics
// (atomic.Int64, atomic.Bool, atomic.Pointer), which cannot be read or
// written plainly. A call to a sync/atomic package-level function
// (atomic.AddInt64(&x, 1)) is reported: it leaves x a plain variable that
// other code may touch without the atomic.
package lockguard

import (
	"go/ast"
	"go/types"
	"strings"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/lintutil"
)

// Marker declares that a function runs with the relevant lock held.
const Marker = "kairos:locked"

var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc:  `checks that "guarded by mu" fields are only accessed under the sibling mutex, and that atomics are typed`,
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	checkAtomicFuncs(pass)
	guarded := collectGuarded(pass)
	if len(guarded) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") || lintutil.HasMarker(fd.Doc, Marker) {
				continue
			}
			checkFunc(pass, fd, guarded)
		}
	}
	return nil, nil
}

// checkAtomicFuncs reports every call to a sync/atomic package-level
// function; the typed atomics' methods have a receiver and pass.
func checkAtomicFuncs(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
				pass.Reportf(call.Pos(), "atomic.%s on a plain variable: use a typed atomic (atomic.Int64, atomic.Bool, atomic.Pointer)", fn.Name())
			}
			return true
		})
	}
}

// collectGuarded gathers the package's annotated fields, validating each
// annotation's sibling mutex. The map value is the mutex field name.
func collectGuarded(pass *analysis.Pass) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := lintutil.GuardedBy(field.Doc, field.Comment)
				if !ok {
					continue
				}
				if !hasMutexField(pass, st, mu) {
					pass.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a sibling sync.Mutex or sync.RWMutex field", mu)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// hasMutexField reports whether the struct declares a field named mu of a
// mutex type.
func hasMutexField(pass *analysis.Pass, st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name == mu {
				return isMutex(pass.TypesInfo.TypeOf(field.Type))
			}
		}
	}
	return false
}

// isMutex accepts sync.Mutex, sync.RWMutex and pointers to them.
func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

// lockEvent is one mu.Lock()/mu.RLock() call: the rendered base
// expression the mutex was selected from, the mutex field name, and the
// position the lock takes effect.
type lockEvent struct {
	base  string
	mutex string
	pos   int
}

// checkFunc verifies every guarded-field access in one function body.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, guarded map[*types.Var]string) {
	var locks []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if muSel, ok := sel.X.(*ast.SelectorExpr); ok {
			locks = append(locks, lockEvent{
				base:  types.ExprString(muSel.X),
				mutex: muSel.Sel.Name,
				pos:   int(call.Pos()),
			})
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		mu, isGuarded := guarded[field]
		if !isGuarded {
			return true
		}
		base := types.ExprString(sel.X)
		for _, lk := range locks {
			if lk.base == base && lk.mutex == mu && lk.pos < int(sel.Pos()) {
				return true
			}
		}
		pass.Reportf(sel.Pos(), "%s.%s is guarded by %s.%s, which is not held here (lock it, suffix the function name with Locked, or annotate //kairos:locked)",
			base, field.Name(), base, mu)
		return true
	})
}
