package cpu

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestSlotsBoundedByProcs: however many goroutines ask at once, no more than
// GOMAXPROCS − 1 slots are out, the cap is the GOMAXPROCS of the moment,
// and every slot comes back.
func TestSlotsBoundedByProcs(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			var peak, out atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 32; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						if !TryAcquire() {
							continue
						}
						n := out.Add(1)
						for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
						}
						if m := InUse(); m > int64(procs-1) {
							t.Errorf("GOMAXPROCS=%d: %d slots in use", procs, m)
						}
						out.Add(-1)
						Release()
					}
				}()
			}
			wg.Wait()
			if p := peak.Load(); p > int64(procs-1) {
				t.Errorf("GOMAXPROCS=%d: %d slots held at once", procs, p)
			}
			if n := InUse(); n != 0 {
				t.Errorf("GOMAXPROCS=%d: %d slots still in use", procs, n)
			}
			if got := Take(procs + 3); got != procs-1 {
				t.Errorf("GOMAXPROCS=%d: Take got %d slots, want %d", procs, got, procs-1)
			}
			for range procs - 1 {
				Release()
			}
		})
	}
}

// TestDoRunsEveryItemOnce: every item runs exactly once, on a worker no
// higher than the helpers the budget had, helpers take the first items,
// and without a free slot the caller runs them in list order.
func TestDoRunsEveryItemOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			for _, n := range []int{0, 1, 2, 3, 17} {
				runs := make([]atomic.Int64, n)
				workers := make([]int, n)
				Do(n, func(w, i int) {
					runs[i].Add(1)
					workers[i] = w
				})
				for i := range runs {
					if r := runs[i].Load(); r != 1 {
						t.Errorf("GOMAXPROCS=%d n=%d: item %d ran %d times", procs, n, i, r)
					}
					if workers[i] >= procs {
						t.Errorf("GOMAXPROCS=%d n=%d: item %d ran on worker %d", procs, n, i, workers[i])
					}
				}
				if n > 1 && procs > 1 && workers[0] != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: the first item ran on worker %d, want the first helper", procs, n, workers[0])
				}
				if u := InUse(); u != 0 {
					t.Errorf("GOMAXPROCS=%d: %d slots in use after Do", procs, u)
				}
			}
			var order []int
			held := Take(procs - 1)
			Do(4, func(w, i int) { order = append(order, i+10*w) })
			for range held {
				Release()
			}
			if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
				t.Errorf("GOMAXPROCS=%d: with every slot taken Do ran %v, want 0 1 2 3 on the caller", procs, order)
			}
		})
	}
}

// TestDoReturnsEverySlot: items that fail and items that stop on a
// cancelled context hand their slots back like ones that succeed, and no
// helper outlives Do.
func TestDoReturnsEverySlot(t *testing.T) {
	atProcs(8, func() {
		base := runtime.NumGoroutine()
		errs := make([]error, 16)
		Do(len(errs), func(_, i int) {
			if i%3 == 0 {
				errs[i] = errors.New("failed")
			}
		})
		if n := InUse(); n != 0 {
			t.Errorf("%d slots in use after items failed", n)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		Do(16, func(_, i int) {
			if started.Add(1) == 4 {
				cancel()
			}
			for ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
		})
		if n := InUse(); n != 0 {
			t.Errorf("%d slots in use after a cancelled Do", n)
		}
		// A helper may still be between its WaitGroup.Done and its exit.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Errorf("%d goroutines after Do, %d before", n, base)
		}
	})
}

// TestDeniedCounts: an acquire with no slot free is counted.
func TestDeniedCounts(t *testing.T) {
	atProcs(1, func() {
		before := Denied()
		if TryAcquire() {
			t.Fatal("a slot at GOMAXPROCS=1")
		}
		if Denied() != before+1 {
			t.Errorf("denied went %d → %d, want one more", before, Denied())
		}
	})
}

// TestHoldKeepsHelpersOff: a hold counts even when every slot is taken, so
// once the helper gives its slot back no other helper starts until the
// hold is released.
func TestHoldKeepsHelpersOff(t *testing.T) {
	atProcs(2, func() {
		if !TryAcquire() {
			t.Fatal("no slot at GOMAXPROCS=2")
		}
		Hold()
		Release()
		if TryAcquire() {
			t.Error("a helper started beside a hold")
			Release()
		}
		Release()
		if n := InUse(); n != 0 {
			t.Errorf("%d slots in use after the hold", n)
		}
	})
}
