// Package lint assembles the kairoslint analyzer suite: the custom
// static checks that prove this repo's performance and concurrency
// contracts at analysis time, over every file, on every CI run. Each
// analyzer lives in its own subpackage with an analysistest fixture
// suite; cmd/kairoslint is the multichecker binary and `make lint` runs
// it over ./...
//
// The suite has two tiers. Per-package analyzers (errflow, floatdet,
// hotalloc, lockguard, wirejson) see one package at a time and run in
// parallel across packages. Whole-program analyzers (atomicmix,
// ctxflow, hotcall, leakcheck, lockorder) run over the interprocedural
// call graph built by internal/lint/callgraph, closing contracts that no
// single package can prove: lock acquisition order, context threading,
// transitive allocation freedom, goroutine termination and atomic/plain
// access mixing. Units (internal/unit) and the control plane's
// journal-before-apply order (internal/server's journaled token) are
// types, so the compiler checks them.
package lint

import (
	"kairos/internal/lint/analysis"
	"kairos/internal/lint/atomicmix"
	"kairos/internal/lint/ctxflow"
	"kairos/internal/lint/errflow"
	"kairos/internal/lint/floatdet"
	"kairos/internal/lint/hotalloc"
	"kairos/internal/lint/hotcall"
	"kairos/internal/lint/leakcheck"
	"kairos/internal/lint/lockguard"
	"kairos/internal/lint/lockorder"
	"kairos/internal/lint/wirejson"
)

// Analyzers returns the full suite in output order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxflow.Analyzer,
		errflow.Analyzer,
		floatdet.Analyzer,
		hotalloc.Analyzer,
		hotcall.Analyzer,
		leakcheck.Analyzer,
		lockguard.Analyzer,
		lockorder.Analyzer,
		wirejson.Analyzer,
	}
}
