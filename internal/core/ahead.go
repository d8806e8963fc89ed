package core

import (
	"context"
	"runtime"
	"sync/atomic"

	"kairos/internal/cpu"
)

// scanAhead is a climb's helper (Resolve's climbs; see sweep). When the
// CPU budget has a slot free, a sweep hands the tail of its units, from
// the point that splits the candidate pairs left in half, to a goroutine
// that scans them with the sweep's own per-unit scan on a copy of the
// climb's state: its own LoadState copy, evaluator clone (counters),
// away count and memo entries, applying its accepted moves to the copy.
// The sweep goes on with the units before the tail. If it reaches the
// tail having accepted nothing since the copy was made, the copy's state
// is the one the sweep would scan the tail on, so the helper's outcome is
// the sweep's: it replays the helper's accepted moves in order and takes
// its memo entries and counters. If it accepts a move first, the helper is
// stopped, its work dropped, and a new scan-ahead starts over the units
// left.
//
// A sweep that reaches the tail before the helper is done scans the
// tail's last units itself, from the end, on its own state — the copy's
// while nothing in the tail moves — into counters and memo entries kept
// apart, until the two meet. An accepted move in the tail, found by
// either side, ends that: the helper scans every unit after it, on the
// state the move leaves, and the sweep's own tail scans are dropped.
//
// One helper goroutine serves every sweep of a climb, from the first
// scan-ahead that finds a slot to the climb's end (close), reusing its
// buffers. Between tails it spins on the handoff, yielding its core to
// any other goroutine: waking a parked goroutine costs tens of
// microseconds, the time a sweep's tail of memoized units takes to scan.
// The nil *scanAhead scans nothing ahead.
type scanAhead struct {
	ev   *Evaluator // the helper's clone: its counters
	ls   *LoadState // the copy the helper scans and moves on
	mig  migration  // the copy's away count
	memo scanMemo   // the copy's memo entries
	// hmig and hmemo point at mig and memo, or are nil where the sweep has
	// no away count or no memo.
	hmig  *migration
	hmemo *scanMemo
	// The sweep's scans of the tail's end: their counters and memo entries.
	back     *Evaluator
	backMemo scanMemo

	// The posted tail: the units [from, n) of a sweep of kind k, and the
	// sweep's change clock when the copy was made. from is -1 while no
	// tail is posted.
	ctx   context.Context
	k     *sweepKind
	from  int
	n     int
	clock uint64
	// units is the tail's units not claimed yet, [lo, hi), the helper
	// claiming from lo and the sweep from hi (see packRange).
	units atomic.Uint64
	// Written by the helper before it marks the tail done: the moves it
	// accepted (unit, destination or partner), in order, and whether it
	// scanned the whole tail (a cancelled ctx or stop ends it short).
	steps    [][2]int
	complete bool

	state   atomic.Int32 // aheadIdle, aheadPosted, aheadScanning, aheadDone or aheadQuit
	stop    atomic.Bool  // the posted tail's work will be dropped
	running bool         // a helper goroutine holds a slot
	exited  chan struct{}
}

// The handoff's states: the sweep posts a tail, the helper takes it up
// and marks it done, the sweep takes the outcome and leaves the handoff
// idle; at the climb's end it asks the helper to quit.
const (
	aheadIdle int32 = iota
	aheadPosted
	aheadScanning
	aheadDone
	aheadQuit
)

// packRange packs a tail's unclaimed units [lo, hi) with two flags: moved
// (a move in the tail was accepted, so the sweep claims no more) and busy
// (the sweep is scanning a unit it claimed).
func packRange(lo, hi int, moved, busy bool) uint64 {
	r := uint64(lo)<<32 | uint64(hi)
	if moved {
		r |= rangeMoved
	}
	if busy {
		r |= rangeBusy
	}
	return r
}

const (
	rangeMoved = 1 << 63
	rangeBusy  = 1 << 62
	rangeLo    = 1<<62 - 1
)

// unpackRange is packRange's inverse.
func unpackRange(r uint64) (lo, hi int, moved, busy bool) {
	return int(r & rangeLo >> 32), int(uint32(r)), r&rangeMoved != 0, r&rangeBusy != 0
}

// start posts the units [from, n) of a sweep of kind k on ls to the helper
// if they leave a tail and a helper runs, starting one if the CPU budget
// has a slot free.
func (sa *scanAhead) start(ctx context.Context, ev *Evaluator, ls *LoadState, mig *migration, memo *scanMemo, k *sweepKind, from int) {
	if sa == nil {
		return
	}
	sa.from = -1
	n := ls.NumUnits()
	if n-from < 2 {
		return
	}
	if !sa.running {
		if !cpu.TryAcquire() {
			return
		}
		sa.running = true
		sa.ev, sa.back = ev.Clone(), ev.Clone()
		sa.exited = make(chan struct{})
		go sa.serve()
	}
	sa.ev.Fevals, sa.ev.stats = 0, SolveStats{}
	sa.ls = ls.copyInto(sa.ls, sa.ev)
	sa.hmig, sa.hmemo = nil, nil
	if mig != nil {
		sa.mig = *mig
		sa.hmig = &sa.mig
	}
	if memo != nil {
		sa.memo.moves = append(sa.memo.moves[:0], memo.moves...)
		sa.memo.swaps = append(sa.memo.swaps[:0], memo.swaps...)
		sa.hmemo = &sa.memo
	}
	sa.ctx, sa.k, sa.n, sa.clock = ctx, k, n, ls.clock
	sa.from = k.tail(from, n)
	sa.steps, sa.complete = sa.steps[:0], false
	sa.units.Store(packRange(sa.from, n, false, false))
	sa.state.Store(aheadPosted)
}

// serve is the helper goroutine: it scans each posted tail until the
// climb's end, then gives its slot back.
func (sa *scanAhead) serve() {
	defer close(sa.exited)
	defer cpu.Release()
	for {
		switch st := sa.state.Load(); {
		case st == aheadPosted && sa.state.CompareAndSwap(aheadPosted, aheadScanning):
			sa.scan()
			sa.state.Store(aheadDone)
		case st == aheadQuit:
			return
		default:
			runtime.Gosched()
		}
	}
}

// scan scans the posted tail on the copy, claiming its units from the
// front, until none is left.
func (sa *scanAhead) scan() {
	for {
		if sa.stop.Load() || sa.ctx.Err() != nil {
			return
		}
		r := sa.units.Load()
		lo, hi, moved, busy := unpackRange(r)
		if lo >= hi {
			if busy {
				// The sweep's unit may yet be an accepted move, which gives
				// the units from it back.
				runtime.Gosched()
				continue
			}
			break
		}
		if !sa.units.CompareAndSwap(r, packRange(lo+1, hi, moved, busy)) {
			continue
		}
		if to := sa.k.scan(sa.ev, sa.ls, sa.hmig, sa.hmemo, lo); to >= 0 {
			sa.k.apply(sa.ls, sa.hmig, lo, to)
			sa.steps = append(sa.steps, [2]int{lo, to})
			sa.giveBack()
		}
	}
	sa.complete = true
}

// giveBack marks a move in the tail accepted: the sweep claims no more of
// its units, and the helper scans every unit left up to its end.
func (sa *scanAhead) giveBack() {
	for {
		r := sa.units.Load()
		lo, _, _, busy := unpackRange(r)
		if sa.units.CompareAndSwap(r, packRange(lo, sa.n, true, busy)) {
			return
		}
	}
}

// claimBack claims the tail's last unclaimed unit for the sweep and marks
// the sweep busy with it; ok is false once the units are all claimed or a
// move in the tail was accepted.
func (sa *scanAhead) claimBack() (u int, ok bool) {
	for {
		r := sa.units.Load()
		lo, hi, moved, _ := unpackRange(r)
		if moved || lo >= hi {
			return 0, false
		}
		if sa.units.CompareAndSwap(r, packRange(lo, hi-1, false, true)) {
			return hi - 1, true
		}
	}
}

// doneBack clears the sweep's busy mark once it has scanned its unit; an
// accepted move there (moved) gives the units from it back, as giveBack.
func (sa *scanAhead) doneBack(moved bool) {
	for {
		r := sa.units.Load()
		lo, hi, wasMoved, _ := unpackRange(r)
		if moved {
			hi, wasMoved = sa.n, true
		}
		if sa.units.CompareAndSwap(r, packRange(lo, hi, wasMoved, false)) {
			return
		}
	}
}

// wait returns once the posted tail is done and leaves the handoff idle.
func (sa *scanAhead) wait() {
	for sa.state.Load() != aheadDone {
		runtime.Gosched()
	}
	sa.state.Store(aheadIdle)
}

// tailAt returns the unit at which the sweep on ls adopts the helper's
// outcome: the tail's first unit while one is posted and ls has not
// changed since the copy, -1 otherwise.
func (sa *scanAhead) tailAt(ls *LoadState) int {
	if sa == nil || sa.from < 0 || ls.clock != sa.clock {
		return -1
	}
	return sa.from
}

// adopt scans the tail's end on ls until the helper's claims meet the
// sweep's, waits for the helper, and makes the tail's outcome the sweep's:
// the helper's accepted moves applied to ls in order, and both sides'
// memo entries and counters, or the helper's alone when a move in the
// tail was accepted. It reports whether the tail moved anything and
// whether it was scanned whole; a tail a cancelled ctx ended short is
// adopted in nothing.
func (sa *scanAhead) adopt(ev *Evaluator, ls *LoadState, mig *migration, memo *scanMemo, k *sweepKind) (moved, complete bool) {
	back := sa.back
	back.Fevals, back.stats = 0, SolveStats{}
	var bmemo *scanMemo
	if memo != nil {
		sa.backMemo.moves = append(sa.backMemo.moves[:0], memo.moves...)
		sa.backMemo.swaps = append(sa.backMemo.swaps[:0], memo.swaps...)
		bmemo = &sa.backMemo
	}
	for sa.ctx.Err() == nil {
		u, ok := sa.claimBack()
		if !ok {
			break
		}
		to := k.scan(back, ls, mig, bmemo, u)
		sa.doneBack(to >= 0)
		if to >= 0 {
			break
		}
	}
	if lo, hi, _, _ := unpackRange(sa.units.Load()); lo >= hi && sa.state.CompareAndSwap(aheadPosted, aheadIdle) {
		sa.complete = true // the helper never took the tail up: the sweep scanned it all
	} else {
		sa.wait()
	}
	from := sa.from
	sa.from = -1
	if !sa.complete {
		return false, false
	}
	// The helper's units end where the sweep's begin; a move in the tail
	// gave the helper every unit to the end.
	meet, _, tailMoved, _ := unpackRange(sa.units.Load())
	for _, s := range sa.steps {
		k.apply(ls, mig, s[0], s[1])
	}
	if memo != nil {
		copy(memo.moves[from:meet], sa.memo.moves[from:meet])
		copy(memo.swaps[from:meet], sa.memo.swaps[from:meet])
		copy(memo.moves[meet:], bmemo.moves[meet:])
		copy(memo.swaps[meet:], bmemo.swaps[meet:])
	}
	ev.Fevals += sa.ev.Fevals
	ev.stats.add(sa.ev.stats)
	if !tailMoved {
		ev.Fevals += back.Fevals
		ev.stats.add(back.stats)
	}
	return len(sa.steps) > 0, true
}

// drop stops the posted tail's scan, waits for it and drops its work.
func (sa *scanAhead) drop() {
	if sa == nil || sa.from < 0 {
		return
	}
	sa.from = -1
	if sa.state.CompareAndSwap(aheadPosted, aheadIdle) {
		return // the helper had not taken it up yet
	}
	sa.stop.Store(true)
	sa.wait()
	sa.stop.Store(false)
}

// close ends the climb's helper, if one runs, once its slot is back.
func (sa *scanAhead) close() {
	if sa == nil || !sa.running {
		return
	}
	sa.drop()
	sa.state.Store(aheadQuit)
	<-sa.exited
	sa.running = false
}
