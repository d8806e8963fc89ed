// Package cpu is the process's one budget of helper goroutines: every site
// that forks work takes its helpers here (README's spawn-site table lists
// them, and TestSpawnSitesListed keeps it whole), so work sharing the
// machine is planned against its cores, not against each site's view of
// them. There are GOMAXPROCS − 1 slots, read at every
// acquire; the calling goroutine is the remaining core. Nothing blocks:
// with no free slot a site runs its work on the calling goroutine.
package cpu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var inUse, denied atomic.Int64

// TryAcquire takes a helper slot if one is free.
func TryAcquire() bool {
	for {
		n := inUse.Load()
		if n >= int64(runtime.GOMAXPROCS(0)-1) {
			denied.Add(1)
			return false
		}
		if inUse.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Hold takes a slot for a goroutine that is already running, whether or
// not one is free, so that no helper starts on the core it uses until it
// calls Release. Only helpers are capped at GOMAXPROCS − 1; with holds,
// InUse can read more.
func Hold() { inUse.Add(1) }

// Release returns a slot TryAcquire, Take or Hold handed out.
func Release() { inUse.Add(-1) }

// Take acquires up to n slots and returns how many it got.
func Take(n int) int {
	got := 0
	for got < n && TryAcquire() {
		got++
	}
	return got
}

// InUse returns the slots taken now.
func InUse() int64 { return inUse.Load() }

// Denied returns how many acquires found no slot free.
func Denied() int64 { return denied.Load() }

// Do runs f(worker, item) for every item in [0, n). The caller is worker 0;
// one helper per free slot, at most n − 1, is worker 1, 2, …, and helper w
// starts with item w − 1, so the first items go to helpers. Then every
// worker takes the next item in list order until none is left. Do returns
// when all have run and every slot is back. f writes its results by item,
// and the caller folds them in item order, which is the order they run in
// without helpers.
func Do(n int, f func(worker, item int)) {
	helpers := Take(n - 1)
	var next atomic.Int64
	next.Store(int64(helpers))
	run := func(w, i int) {
		for ; i < n; i = int(next.Add(1) - 1) {
			f(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		go func() {
			defer wg.Done()
			defer Release()
			run(w, w-1)
		}()
	}
	run(0, int(next.Add(1)-1))
	wg.Wait()
}
