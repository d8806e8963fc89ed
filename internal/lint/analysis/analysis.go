// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer runs over one
// type-checked package (a Pass) and reports Diagnostics. The repo takes no
// third-party dependencies, so the subset kairoslint needs lives here;
// analyzers written against it port to the upstream multichecker by
// swapping this import (the field names match deliberately).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name (used in output and in
// //kairoslint:allow suppressions), documentation, and the Run function
// invoked once per package. Exactly one of Run and RunProgram is set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments. It must be a valid Go identifier.
	Name string
	// Doc is the analyzer's help text. The first line is the summary.
	Doc string
	// Run applies the check to one package. Diagnostics go through
	// pass.Report; the result value is unused by this driver and exists
	// for upstream signature compatibility.
	Run func(*Pass) (any, error)
	// RunProgram, when set, makes this a whole-program analyzer: the
	// driver calls it once with every loaded package instead of calling
	// Run per package. Checks that need cross-package context — anything
	// built on the call graph — live here. Diagnostics go through
	// prog.Report.
	RunProgram func(*Program) error
}

// Pass holds one type-checked package and the reporting sink for one
// analyzer run. All positions resolve through Fset.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver applies
	// //kairoslint:allow line suppressions after this call, so analyzers
	// report unconditionally.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Program is every loaded package: what the driver loads, and what a
// whole-program analyzer (Analyzer.RunProgram) reads at once. All
// packages share one FileSet. Each package
// is type-checked on its own, importing the others from export data, so
// the same function is a different *types.Func in each package that
// names it: program-wide identities are names (types.Func.FullName),
// not objects, and not positions — export data keeps no columns.
type Program struct {
	Fset     *token.FileSet
	Packages []*ProgramPackage
	// Report delivers one diagnostic, exactly like Pass.Report: the
	// driver applies //kairoslint:allow suppressions after this call, so
	// analyzers report unconditionally. The driver points it at the
	// current analyzer's sink before each RunProgram call.
	Report func(Diagnostic)
}

// ProgramPackage is one type-checked package inside a Program. Test
// units (package foo_test) appear as their own entries.
type ProgramPackage struct {
	Path      string
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Reportf reports a formatted diagnostic at pos.
func (p *Program) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
