package kairos

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"kairos/internal/core"
	"kairos/internal/cpu"
	"kairos/internal/fleet"
)

// all197Problem builds the paper's full 197-server consolidation instance
// (the ALL fleet on homogeneous targets) — large enough that a cold solve
// takes seconds, which is what makes mid-flight cancellation observable.
func all197Problem(t *testing.T) *core.Problem {
	t.Helper()
	f := fleet.All()
	wls := f.Workloads(0.7)
	if len(wls) != 197 {
		t.Fatalf("ALL fleet has %d servers, want 197", len(wls))
	}
	machines := make([]core.Machine, len(f.Servers))
	for i := range machines {
		machines[i] = fleet.TargetMachine(fmt.Sprintf("t%d", i), 50e6, 0.05)
	}
	return &core.Problem{Workloads: wls, Machines: machines}
}

// settled reports the goroutine count once it is back to base, or after two
// seconds: a helper may still be between its WaitGroup.Done and its exit.
func settled(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestSolveCancel197: cancelling the context aborts an in-flight cold solve
// of the 197-server fleet well before it would complete, and the solver
// returns ctx.Err() rather than a partial plan, with every speculated probe
// and helper gone and its CPU budget slot back.
func TestSolveCancel197(t *testing.T) {
	p := all197Problem(t)
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		sol     *core.Solution
		err     error
		elapsed time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		sol, err := core.Solve(ctx, p, core.DefaultSolveOptions())
		done <- result{sol, err, time.Since(start)}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled solve returned (%v, %v), want context.Canceled", r.sol, r.err)
		}
		if r.sol != nil {
			t.Fatalf("cancelled solve returned a plan: %+v", r.sol)
		}
		// The abort has to beat a full solve (multiple seconds on this
		// instance) by a wide margin to be useful inside a shutdown grace
		// window. The bound is loose for slow CI machines.
		if r.elapsed > 5*time.Second {
			t.Errorf("cancelled solve took %v to abort", r.elapsed)
		}
		t.Logf("aborted after %v", r.elapsed)
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled solve did not return within 30s")
	}
	if n := settled(goroutines); n > goroutines {
		t.Errorf("%d goroutines after the cancelled solve, %d before", n, goroutines)
	}
	if n := cpu.InUse(); n != 0 {
		t.Errorf("%d CPU budget slots still taken after the cancelled solve", n)
	}
}

// TestResolveCancel197: the warm re-solve path (what drift triggers run)
// honours cancellation the same way, and leaves no goroutine and no CPU
// budget slot behind when it returns.
func TestResolveCancel197(t *testing.T) {
	p := all197Problem(t)
	base, err := core.Solve(context.Background(), p, core.SolveOptions{SkipDirect: true})
	if err != nil {
		t.Fatal(err)
	}
	inc := core.IncumbentFromSolution(p, base)

	// Drift every workload so the warm re-solve has real work to abort.
	drifted := *p
	drifted.Workloads = make([]core.Workload, len(p.Workloads))
	for i, w := range p.Workloads {
		dw := w
		dw.CPU = w.CPU.Scale(1.25)
		drifted.Workloads[i] = dw
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the re-solve must notice immediately
	goroutines := runtime.NumGoroutine()
	sol, err := core.Resolve(ctx, &drifted, inc, core.DefaultResolveOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled re-solve returned (%v, %v), want context.Canceled", sol, err)
	}
	if n := settled(goroutines); n > goroutines {
		t.Errorf("%d goroutines after the cancelled re-solve, %d before", n, goroutines)
	}
	if n := cpu.InUse(); n != 0 {
		t.Errorf("%d CPU budget slots still taken after the cancelled re-solve", n)
	}
}
