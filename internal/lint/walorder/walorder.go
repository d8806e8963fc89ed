// Package walorder mechanizes the control plane's WAL mutation
// contract, which CONTRIBUTING.md states and PR reviews used to enforce
// by eye: every control-plane mutation needs (1) a RecordWire field,
// (2) a journal append at its live mutation site that happens BEFORE
// the client-visible acknowledgement, and (3) a replay case in
// recovery.go. The analyzer proves all three statically:
//
//   - Replay coverage: every pointer field of the RecordWire struct
//     must appear in a `case rw.<Field> != nil:` clause of some switch
//     in a non-test file. A field with no replay case is a mutation
//     recovery silently drops.
//   - Journal coverage: every pointer field must be set by some
//     RecordWire composite literal in a non-test file — the append
//     sites. A field no live path constructs is a replay case that can
//     never fire.
//   - Append-before-ack ordering: inside any function that calls
//     appendRecord (or appendPayload, which journals a record built
//     ahead of time — the spliced window record), every call to an
//     ack/publish function (one whose doc comment carries the
//     //kairos:ack marker) must be dominated by such an append on the
//     function's control-flow graph. If some path acks without
//     journaling first, a crash after the ack loses a mutation the
//     client saw succeed.
//
// Functions with no append call are exempt from the ordering
// rule: replay itself, read-only handlers, and error-path helpers like
// writeErr ack things that were never mutations. The control plane's
// apply functions (one per record kind, called by the live path right
// after its append and by replay) carry the marker, so the rule holds
// where a handler calls them. Closure interiors are out of CFG scope and
// are skipped.
package walorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/dataflow"
	"kairos/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:       "walorder",
	Doc:        "enforces the WAL contract: journal append before ack, and a replay case per RecordWire field",
	RunProgram: run,
}

// recordTypeName is the wire struct the journal marshals; one pointer
// field per mutation kind.
const recordTypeName = "RecordWire"

// appendFuncNames are the journaling entry points: appendRecord
// marshals a RecordWire and journals it, appendPayload journals one
// already marshalled (the window record, spliced by its handler).
var appendFuncNames = map[string]bool{"appendRecord": true, "appendPayload": true}

// ackMarker marks a function whose call makes a mutation
// client-visible: HTTP acks, plan publishes.
const ackMarker = "kairos:ack"

func run(prog *analysis.Program) error {
	fields := recordFields(prog)
	if len(fields) > 0 {
		replayed, journaled := fieldCoverage(prog)
		for _, f := range fields {
			if !replayed[f.Name()] {
				prog.Reportf(f.Pos(), "RecordWire field %s has no replay case (case rw.%s != nil) — recovery drops this mutation", f.Name(), f.Name())
			}
			if !journaled[f.Name()] && !journaled["*"] {
				prog.Reportf(f.Pos(), "RecordWire field %s is never journaled: no live composite literal sets it", f.Name())
			}
		}
	}
	checkOrdering(prog)
	return nil
}

// recordFields returns the pointer fields of the program's RecordWire
// struct, deduplicated across type-check universes by position and
// sorted by position for deterministic reports.
func recordFields(prog *analysis.Program) []*types.Var {
	seen := map[string]bool{}
	var out []*types.Var
	for _, pkg := range prog.Packages {
		for _, obj := range pkg.TypesInfo.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.Name() != recordTypeName {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, ok := f.Type().Underlying().(*types.Pointer); !ok {
					continue
				}
				id := prog.Fset.Position(f.Pos()).String()
				if seen[id] {
					continue
				}
				seen[id] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// fieldCoverage scans every non-test file for the two syntactic shapes
// the contract requires: replay switch cases (`case rw.F != nil:`) and
// journaling composite literals (`RecordWire{F: ...}`). A positional
// (keyless) literal conservatively covers every field.
func fieldCoverage(prog *analysis.Program) (replayed, journaled map[string]bool) {
	replayed, journaled = map[string]bool{}, map[string]bool{}
	for _, pkg := range prog.Packages {
		info := pkg.TypesInfo
		for _, file := range pkg.Files {
			if isTestFile(prog.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CaseClause:
					for _, expr := range n.List {
						if f := nilCheckedField(info, expr); f != "" {
							replayed[f] = true
						}
					}
				case *ast.CompositeLit:
					if !isRecordType(info.TypeOf(n)) {
						return true
					}
					if len(n.Elts) > 0 {
						if _, ok := n.Elts[0].(*ast.KeyValueExpr); !ok {
							// Positional literal: every field is set.
							journaled["*"] = true
							return true
						}
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								journaled[key.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return replayed, journaled
}

// nilCheckedField matches `rw.F != nil` (either operand order) where rw
// has type RecordWire or *RecordWire, returning F or "".
func nilCheckedField(info *types.Info, expr ast.Expr) string {
	bin, ok := ast.Unparen(expr).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return ""
	}
	sel, other := bin.X, bin.Y
	if !isNil(info, other) {
		sel, other = bin.Y, bin.X
		if !isNil(info, other) {
			return ""
		}
	}
	se, ok := ast.Unparen(sel).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if !isRecordType(info.TypeOf(se.X)) {
		return ""
	}
	return se.Sel.Name
}

func isNil(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(expr)]
	return ok && tv.IsNil()
}

// isRecordType reports whether t is RecordWire or a pointer to it.
func isRecordType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == recordTypeName
}

// checkOrdering proves append-before-ack per function: in every
// non-test function whose body calls an append function, each call to
// an ack-marked function must be dominated by one of the append calls.
func checkOrdering(prog *analysis.Program) {
	acked := ackFuncs(prog)
	type site struct {
		pos  token.Pos
		name string
	}
	for _, pkg := range prog.Packages {
		info := pkg.TypesInfo
		for _, file := range pkg.Files {
			if isTestFile(prog.Fset, file) {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				var appends []*ast.CallExpr
				var acks []site
				var ackCalls []*ast.CallExpr
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeOf(info, call)
					if fn == nil {
						return true
					}
					switch {
					case appendFuncNames[fn.Name()]:
						appends = append(appends, call)
					case acked[prog.Fset.Position(fn.Pos()).String()]:
						acks = append(acks, site{pos: call.Pos(), name: fn.Name()})
						ackCalls = append(ackCalls, call)
					}
					return true
				})
				if len(appends) == 0 || len(acks) == 0 {
					continue
				}
				cfg := dataflow.New(fd.Body)
				for i, ack := range ackCalls {
					if cfg.BlockOf(ack) == nil {
						continue // inside a closure: out of CFG scope
					}
					dominated := false
					for _, ap := range appends {
						if cfg.BlockOf(ap) != nil && cfg.Dominates(ap, ack) {
							dominated = true
							break
						}
					}
					if !dominated {
						prog.Reportf(acks[i].pos, "%s acks a mutation on a path with no prior appendRecord/appendPayload — journal before acking (//kairos:ack contract)", acks[i].name)
					}
				}
			}
		}
	}
}

// ackFuncs indexes every function whose doc carries //kairos:ack, by
// the position string of its defining identifier (the same
// cross-universe identity the call graph uses).
func ackFuncs(prog *analysis.Program) map[string]bool {
	out := map[string]bool{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !lintutil.HasMarker(fd.Doc, ackMarker) {
					continue
				}
				out[prog.Fset.Position(fd.Name.Pos()).String()] = true
			}
		}
	}
	return out
}

// calleeOf resolves a call to its *types.Func, or nil for function
// values, builtins and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}
