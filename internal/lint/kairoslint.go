// Package lint assembles the kairoslint analyzer suite: the custom
// static checks that prove this repo's concurrency, error and wire
// contracts at analysis time, over every file, on every CI run. Each
// analyzer lives in its own subpackage with an analysistest fixture
// suite; cmd/kairoslint is the multichecker binary and `make lint` runs
// it over ./...
//
// The suite has six analyzers in two tiers. Per-package analyzers
// (ctxflow, errflow, floatdet, lockguard, wirejson) see one package at a
// time and run in parallel across packages. The one whole-program
// analyzer, lockorder, runs over the interprocedural call graph built by
// internal/lint/callgraph, because lock acquisition order is a contract
// no single package can prove. Every package is type-checked once from
// source; what it imports is read from the compiler's export data.
//
// Other contracts are held by something stronger than an analyzer:
// units (internal/unit) and the control plane's journal-before-apply
// order (internal/server's journaled token) are types the compiler
// checks, atomics are typed (lockguard reports a sync/atomic function
// call), the solver's hot kernels are pinned at zero allocations by the
// tests their files' headers name, and every library goroutine is
// joined before its owner returns, with a test holding each join.
package lint

import (
	"kairos/internal/lint/analysis"
	"kairos/internal/lint/ctxflow"
	"kairos/internal/lint/errflow"
	"kairos/internal/lint/floatdet"
	"kairos/internal/lint/lockguard"
	"kairos/internal/lint/lockorder"
	"kairos/internal/lint/wirejson"
)

// Analyzers returns the full suite in output order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		errflow.Analyzer,
		floatdet.Analyzer,
		lockguard.Analyzer,
		lockorder.Analyzer,
		wirejson.Analyzer,
	}
}
