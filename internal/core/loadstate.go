package core

import (
	"fmt"
	"math"
)

// The pricers in this file and their kernels (PriceAdd, PriceRemove,
// CanPlace, PriceSwap, priceExchange, fill, fillExchange and exchangeSum,
// capWithout, conflictsOn, contribWith) allocate nothing. Three
// tests pin that with testing.AllocsPerRun, with and without the disk
// model, and skip under -race:
//
//   - TestLoadStatePricingAllocationFree prices every unit onto every
//     machine, through each exit of CanPlace and a cubic disk polynomial;
//   - TestLoadStateSwapPricingAllocationFree prices a swap;
//   - TestSweepsAllocationFree (stamps_test.go) runs bestMove and a whole
//     swap sweep over them.

// LoadState is the incremental load-state engine of the consolidation
// evaluator (the Section 6 solver's cheap-evaluation discipline): it
// maintains, for every machine of a K-machine assignment, the running
// aggregate demand vectors (CPU and RAM, plus working set and update rate
// when the problem has a disk model — nothing reads them otherwise — each
// length T, a flat stream's summed at step 0 and filled past it by refresh)
// together with the machine's canonical objective contribution,
// so that pricing a candidate move "unit u from machine a to machine b"
// costs O(T) — one add/remove delta into reusable scratch buffers —
// instead of re-summing every member's full time series from scratch.
//
// Correctness discipline:
//
//   - PriceAdd is bit-identical to the canonical scratch pricer
//     (Evaluator.ServerContrib on the member list plus the candidate),
//     because the maintained sums are accumulated in member-list order and
//     the candidate's demand is added on top exactly as accumulateInto
//     would.
//   - PriceRemove subtracts the unit's demand from the maintained sums,
//     which can differ from a canonical re-sum by rounding in the last
//     ulp. That estimate is only ever used to compare candidate moves
//     inside one local-search step; it never enters the state.
//   - Move re-materializes the source's sums canonically from its member
//     list and adds the unit's demand to the destination's canonical sums
//     — the next step of accumulate's fold, as the unit goes last — so
//     rounding drift never accumulates and Contrib always equals
//     ServerContrib on the same member list, bit for bit. Final solutions
//     are still priced through Evaluator.Eval.
//
// The pricing methods allocate nothing (see the tests named at the top of
// this file). A LoadState is not safe for concurrent use; parallel solvers give each goroutine its
// own (the same rule as Evaluator.Clone).
type LoadState struct {
	ev *Evaluator
	k  int

	// assign[u] is unit u's current machine; members[j] lists machine j's
	// units in insertion order (significant: sums are accumulated in this
	// order).
	assign  []int
	members [][]int

	// The change clock: clock counts the mutations applied so far (it starts
	// at 1) and changed[j] is its value at the last one that touched machine
	// j's member list — every mutator (move, Move, Swap, Fold) stamps the
	// machines it touches. A price that reads only machines whose stamps are
	// no later than some earlier clock value is the price computed then, bit
	// for bit, which is what lets the hill climb skip re-pricing candidates
	// it has already rejected: machine j has changed since an earlier clock
	// read c iff changed[j] > c (see scanMemo in solve.go).
	clock   uint64
	changed []uint64

	// Canonical per-machine running sums, each buffer length T (ws and rate
	// buffers are nil without a disk model). A flat stream (Evaluator.flatRAM,
	// flatWS) is summed at step 0 and refresh copies that over its other
	// steps, because the screens and resample read the sums at any step.
	cpu  [][]float64
	ram  [][]float64
	ws   [][]float64
	rate [][]float64

	// Cached per-machine derived state, kept in lockstep with the sums.
	contrib   []float64 // canonical objective contribution
	norm      []float64 // normalized balance load in [0,1]
	confPairs []int     // anti-affinity pairs currently sharing the machine
	slaCap    []float64 // strictest member SLA utilization cap (1 = none)
	// Scratch buffers for candidate pricing, reused across calls (sWS and
	// sRate are nil without a disk model), written and read over each
	// stream's horizon only.
	sCPU, sRAM, sWS, sRate []float64

	// The sweep screen's per-machine peak-step sample (see coarse.go): flat,
	// stride sampleStride, rebuilt with the canonical sums; a screen reads
	// the first nSample steps of a row.
	sample  []int32
	nSample int
	// capTab is the capacity stage's per-machine table for the unit a
	// sweep is scanning (capSides).
	capTab []capSide
}

// NewLoadState builds the incremental state for an assignment over the
// first K machines. Every assignment must lie in [0,K) — local search
// operates strictly on in-range plans (Eval penalizes out-of-range ones).
// The input slice is copied, never mutated.
func NewLoadState(ev *Evaluator, assign []int, K int) *LoadState {
	if len(assign) != len(ev.units) {
		panic(fmt.Sprintf("core: LoadState assignment has %d units, want %d", len(assign), len(ev.units)))
	}
	T := ev.T
	ls := &LoadState{
		ev:        ev,
		k:         K,
		assign:    append([]int(nil), assign...),
		members:   make([][]int, K),
		clock:     1,
		changed:   make([]uint64, K),
		cpu:       make([][]float64, K),
		ram:       make([][]float64, K),
		ws:        make([][]float64, K),
		rate:      make([][]float64, K),
		contrib:   make([]float64, K),
		norm:      make([]float64, K),
		confPairs: make([]int, K),
		slaCap:    make([]float64, K),
		sample:    make([]int32, K*sampleStride),
		nSample:   sampleDisk,
		capTab:    make([]capSide, K),
		sCPU:      make([]float64, T),
		sRAM:      make([]float64, T),
	}
	disk := ev.p.Disk != nil
	if disk {
		ls.sWS = make([]float64, T)
		ls.sRate = make([]float64, T)
		ls.nSample = sampleStride
	}
	for u, j := range ls.assign {
		if j < 0 || j >= K {
			panic(fmt.Sprintf("core: LoadState unit %d assigned to machine %d outside [0,%d)", u, j, K))
		}
		ls.members[j] = append(ls.members[j], u)
	}
	for j := 0; j < K; j++ {
		ls.changed[j] = ls.clock
		ls.cpu[j] = make([]float64, T)
		ls.ram[j] = make([]float64, T)
		if disk {
			ls.ws[j] = make([]float64, T)
			ls.rate[j] = make([]float64, T)
		}
		ls.rematerialize(j)
	}
	return ls
}

// copyInto makes dst a copy of ls that prices through ev (a clone of ls's
// evaluator) and returns it: the same assignment, member lists, change
// clock, sums and cached state, bit for bit, and scratch of its own. A
// non-nil dst last copied from a LoadState of the same shape keeps its
// buffers. The sweeps' scan-ahead scans on such a copy (scanAhead).
func (ls *LoadState) copyInto(dst *LoadState, ev *Evaluator) *LoadState {
	K, T := ls.k, ls.ev.T
	if dst == nil || len(dst.changed) != len(ls.changed) || len(dst.assign) != len(ls.assign) {
		disk := ls.sWS != nil
		dst = &LoadState{
			assign:    make([]int, len(ls.assign)),
			members:   make([][]int, len(ls.members)),
			changed:   make([]uint64, len(ls.changed)),
			cpu:       make([][]float64, len(ls.cpu)),
			ram:       make([][]float64, len(ls.ram)),
			ws:        make([][]float64, len(ls.ws)),
			rate:      make([][]float64, len(ls.rate)),
			contrib:   make([]float64, len(ls.contrib)),
			norm:      make([]float64, len(ls.norm)),
			confPairs: make([]int, len(ls.confPairs)),
			slaCap:    make([]float64, len(ls.slaCap)),
			sample:    make([]int32, len(ls.sample)),
			capTab:    make([]capSide, len(ls.capTab)),
			sCPU:      make([]float64, T),
			sRAM:      make([]float64, T),
		}
		for j := range dst.cpu {
			dst.cpu[j], dst.ram[j] = make([]float64, T), make([]float64, T)
			if disk {
				dst.ws[j], dst.rate[j] = make([]float64, T), make([]float64, T)
			}
		}
		if disk {
			dst.sWS, dst.sRate = make([]float64, T), make([]float64, T)
		}
	}
	dst.ev, dst.k, dst.clock, dst.nSample = ev, K, ls.clock, ls.nSample
	copy(dst.assign, ls.assign)
	copy(dst.changed, ls.changed)
	copy(dst.contrib, ls.contrib)
	copy(dst.norm, ls.norm)
	copy(dst.confPairs, ls.confPairs)
	copy(dst.slaCap, ls.slaCap)
	copy(dst.sample, ls.sample)
	for j := 0; j < K; j++ {
		dst.members[j] = append(dst.members[j][:0], ls.members[j]...)
		copy(dst.cpu[j], ls.cpu[j])
		copy(dst.ram[j], ls.ram[j])
		if ls.ws[j] != nil {
			copy(dst.ws[j], ls.ws[j])
			copy(dst.rate[j], ls.rate[j])
		}
	}
	return dst
}

// K returns the current machine count (Fold shrinks it).
func (ls *LoadState) K() int { return ls.k }

// NumUnits returns the number of placement units.
func (ls *LoadState) NumUnits() int { return len(ls.assign) }

// Assign returns unit u's current machine.
func (ls *LoadState) Assign(u int) int { return ls.assign[u] }

// Assignment returns a copy of the full current assignment.
func (ls *LoadState) Assignment() []int { return append([]int(nil), ls.assign...) }

// Members returns machine j's unit list in insertion order. The slice is
// the live internal state — callers must not mutate or retain it across
// Move/Fold calls.
func (ls *LoadState) Members(j int) []int { return ls.members[j] }

// Contrib returns machine j's canonical objective contribution (balance
// term plus violation and anti-affinity penalties), identical to
// Evaluator.ServerContrib on the same member list.
func (ls *LoadState) Contrib(j int) float64 { return ls.contrib[j] }

// NormLoad returns machine j's normalized balance load in [0,1].
func (ls *LoadState) NormLoad(j int) float64 { return ls.norm[j] }

// touch advances the change clock and stamps machines a and b with it.
func (ls *LoadState) touch(a, b int) {
	ls.clock++
	ls.changed[a], ls.changed[b] = ls.clock, ls.clock
}

// rematerialize recomputes machine j's canonical sums, peak-step sample and
// cached state from its member list, so drift from subtractive pricing
// never enters the state.
func (ls *LoadState) rematerialize(j int) {
	ls.ev.accumulateInto(ls.members[j], ls.cpu[j], ls.ram[j], ls.ws[j], ls.rate[j])
	ls.refresh(j)
}

// refresh copies machine j's flat sums' step 0 over their other steps, then
// recomputes its sample and cached state from its canonical sums: evalSums'
// contribution, with peak scans that record the peak steps.
func (ls *LoadState) refresh(j int) {
	ev := ls.ev
	if ev.flatRAM {
		fillFlat(ls.ram[j])
	}
	if ev.flatWS {
		fillFlat(ls.ws[j])
	}
	members := ls.members[j]
	cpuPeak, ramPeak := ls.resample(j)
	var diskPeak float64
	var wsSum, rateSum []float64
	if ev.p.Disk != nil {
		wsSum, rateSum = ls.ws[j], ls.rate[j]
		var at int
		diskPeak, at = ev.diskPeak(wsSum, rateSum)
		ls.sample[j*sampleStride+sampleDisk] = int32(at)
	}

	pairs := ev.conflictPairs(members)
	ls.confPairs[j] = pairs

	cap := ev.slaCap(members)
	ls.slaCap[j] = cap

	if len(members) == 0 {
		ls.contrib[j] = 0
		ls.norm[j] = 0
		return
	}
	viol, norm := ev.pricePeaks(j, cpuPeak, ramPeak, diskPeak, cap, wsSum, rateSum)
	ls.norm[j] = norm
	ls.contrib[j] = contribWith(norm, viol, pairs)
}

// fillFlat sets every step of a flat stream's sum to its step 0: the value
// the fold over all T steps would have left there, bit for bit.
func fillFlat(sum []float64) {
	for t := 1; t < len(sum); t++ {
		sum[t] = sum[0]
	}
}

// contribWith assembles a machine contribution from its pieces using the
// exact addition sequence of the canonical pricer (ServerContrib adds one
// penaltyWeight per conflicting pair), so incremental and scratch pricing
// agree bit for bit.
func contribWith(norm, viol float64, pairs int) float64 {
	return contribFrom(math.Exp(norm), viol, pairs)
}

// contribFrom is contribWith with e = exp(norm); it rises with e and with
// viol. The product is rounded before it is added, here as in Eval's and
// ServerContrib's sums, so no architecture fuses it in one and not another;
// a caller that computes e as a product rounds it too (sideBound.set).
func contribFrom(e, viol float64, pairs int) float64 {
	c := e + float64(penaltyWeight*viol)
	for i := 0; i < pairs; i++ {
		c += penaltyWeight
	}
	return c
}

// conflictsOn counts unit u's anti-affinity conflicts currently assigned
// to machine j.
func (ls *LoadState) conflictsOn(u, j int) int {
	n := 0
	for _, c := range ls.ev.conflicts[u] {
		if ls.assign[c] == j {
			n++
		}
	}
	return n
}

// conflictsOnExcluding counts unit u's anti-affinity conflicts currently on
// machine j, ignoring unit excl (used by swap pricing, where excl is about
// to leave j).
func (ls *LoadState) conflictsOnExcluding(u, j, excl int) int {
	n := 0
	for _, c := range ls.ev.conflicts[u] {
		if c != excl && ls.assign[c] == j {
			n++
		}
	}
	return n
}

// capWithout returns the SLA utilization cap machine j's members impose
// without member out: the machine's cached cap unless out alone may set it.
func (ls *LoadState) capWithout(j, out int) float64 {
	ev := ls.ev
	if ev.slaCapU[out] > ls.slaCap[j] || ls.slaCap[j] >= 1 {
		return ls.slaCap[j]
	}
	cap := 1.0
	for _, m := range ls.members[j] {
		if m == out {
			continue
		}
		if c := ev.slaCapU[m]; c < cap {
			cap = c
		}
	}
	return cap
}

// fill writes machine j's sums plus unit u's demand into the scratch
// buffers, or minus it when sub: CPU and RAM always, working set and update
// rate only under a disk model.
func (ls *LoadState) fill(u, j int, sub bool) {
	ls.ev.fillUnit(u, sub, ls.sCPU, ls.sRAM, ls.sWS, ls.sRate, ls.cpu[j], ls.ram[j], ls.ws[j], ls.rate[j])
}

// PriceAdd prices machine j as if unit u were appended to its members:
// the contribution j would have after accepting the move. When u already
// lives on j the current contribution is returned unchanged (u is not
// double-counted). O(T), zero allocations, bit-identical to the canonical
// scratch pricer.
func (ls *LoadState) PriceAdd(u, j int) float64 {
	ev := ls.ev
	if ls.assign[u] == j {
		return ls.contrib[j]
	}
	ls.fill(u, j, false)
	cap := ls.slaCap[j]
	if c := ev.slaCapU[u]; c < cap {
		cap = c
	}
	viol, norm := ev.evalSums(j, ls.sCPU, ls.sRAM, ls.sWS, ls.sRate, cap)
	return contribWith(norm, viol, ls.confPairs[j]+ls.conflictsOn(u, j))
}

// PriceRemove prices unit u's current machine as if u left it. O(T), zero
// allocations. The subtractive sums can differ from a canonical re-sum in
// the last ulp; accepted moves re-materialize canonically, so the estimate
// never persists.
func (ls *LoadState) PriceRemove(u int) float64 {
	ev := ls.ev
	from := ls.assign[u]
	if len(ls.members[from]) == 1 {
		return 0 // machine becomes unused
	}
	ls.fill(u, from, true)
	viol, norm := ev.evalSums(from, ls.sCPU, ls.sRAM, ls.sWS, ls.sRate, ls.capWithout(from, u))
	return contribWith(norm, viol, ls.confPairs[from]-ls.conflictsOn(u, from))
}

// CanPlace reports whether unit u fits on machine j within every resource
// constraint and without anti-affinity conflicts — the incremental
// equivalent of Evaluator.FitsOneMachine on members[j]+u (or on the
// current members when u already lives on j). O(T), zero allocations.
// Like FitsOneMachine it refuses machines whose existing members already
// conflict or violate, and it does not check pins.
func (ls *LoadState) CanPlace(u, j int) bool {
	ev := ls.ev
	if ls.assign[u] == j {
		if ls.confPairs[j] > 0 {
			return false
		}
		viol, _ := ev.evalSums(j, ls.cpu[j], ls.ram[j], ls.ws[j], ls.rate[j], ls.slaCap[j])
		return viol == 0
	}
	if ls.confPairs[j] > 0 || ls.conflictsOn(u, j) > 0 {
		return false
	}
	// Sweep screen: a positive violation lower bound proves the placement
	// infeasible from the sampled steps alone, so the exact O(T) pricing
	// only runs for machines the bound cannot rule out. The boolean is
	// unchanged — viol ≥ screenAddViol always.
	if ls.screenAddViol(u, j) > 0 {
		return false
	}
	ls.fill(u, j, false)
	cap := ls.slaCap[j]
	if c := ev.slaCapU[u]; c < cap {
		cap = c
	}
	viol, _ := ev.evalSums(j, ls.sCPU, ls.sRAM, ls.sWS, ls.sRate, cap)
	return viol == 0
}

// fillExchange writes machine j's sums minus member `out`'s demand plus
// unit `in`'s into the scratch buffers — the aggregate j would carry after a
// 2-exchange, each stream over its horizon. Like fill it skips the disk
// streams without a disk model.
func (ls *LoadState) fillExchange(j, out, in int) {
	ev := ls.ev
	exchangeSum(ls.sCPU[:ev.T], ls.cpu[j], ev.cpu[out], ev.cpu[in])
	exchangeSum(ls.sRAM[:ev.ramSteps()], ls.ram[j], ev.ram[out], ev.ram[in])
	if ev.p.Disk != nil {
		exchangeSum(ls.sWS[:ev.wsSteps()], ls.ws[j], ev.ws[out], ev.ws[in])
		exchangeSum(ls.sRate[:ev.T], ls.rate[j], ev.rate[out], ev.rate[in])
	}
}

// exchangeSum is fillExchange's kernel over one stream and the steps dst
// spans: dst = sum − out + in, bounds checks hoisted like fillSum's.
func exchangeSum(dst, sum, out, in []float64) {
	sum, out, in = sum[:len(dst)], out[:len(dst)], in[:len(dst)]
	for t := range dst {
		dst[t] = sum[t] - out[t] + in[t]
	}
}

// priceExchange prices machine j as if its member `out` left and unit `in`
// (currently hosted elsewhere) took its place: the contribution j would have
// after the exchange. O(T), zero allocations. Like PriceRemove the
// subtractive half can differ from a canonical re-sum in the last ulp;
// Swap re-materializes canonically, so the estimate never enters the state.
func (ls *LoadState) priceExchange(j, out, in int) float64 {
	ev := ls.ev
	ls.fillExchange(j, out, in)
	cap := ls.capWithout(j, out)
	if c := ev.slaCapU[in]; c < cap {
		cap = c
	}
	pairs := ls.confPairs[j] - ls.conflictsOn(out, j) + ls.conflictsOnExcluding(in, j, out)
	viol, norm := ev.evalSums(j, ls.sCPU, ls.sRAM, ls.sWS, ls.sRate, cap)
	return contribWith(norm, viol, pairs)
}

// PriceSwap prices the 2-exchange of units u and v, which must live on
// different machines: the contributions u's machine would have after
// swapping u out for v, and v's machine after swapping v out for u. Each
// side is one O(T) delta pass over the maintained sums, so a swap costs two
// move pricings instead of a re-aggregation of both machines — the property
// that makes 2-exchange sweeps affordable inside the hill climb.
func (ls *LoadState) PriceSwap(u, v int) (newU, newV float64) {
	a, b := ls.assign[u], ls.assign[v]
	if a == b {
		panic(fmt.Sprintf("core: LoadState.PriceSwap units %d and %d share machine %d", u, v, a))
	}
	newU = ls.priceExchange(a, u, v)
	newV = ls.priceExchange(b, v, u)
	return newU, newV
}

// Swap exchanges units u and v between their (distinct) machines and
// re-materializes both canonically. Each side keeps member order: the
// departing unit is excised in place and the arriving unit appended —
// exactly the member lists PriceSwap priced, so post-swap Contrib matches
// the canonical pricer bit for bit.
func (ls *LoadState) Swap(u, v int) {
	a, b := ls.assign[u], ls.assign[v]
	if a == b {
		panic(fmt.Sprintf("core: LoadState.Swap units %d and %d share machine %d", u, v, a))
	}
	ls.move(u, b, false, false)
	ls.move(v, a, false, false)
	ls.rematerialize(a)
	ls.rematerialize(b)
}

// Move reassigns unit u to machine `to` and updates the two touched
// machines' canonical sums and contributions. Member order is preserved on
// the source (u is excised in place) and u is appended on the destination,
// matching the canonical pricers' ordering.
func (ls *LoadState) Move(u, to int) {
	ls.move(u, to, true, true)
}

// move is Move with per-side re-materialization control: reduceK's trial
// loop empties one machine in a burst and never prices the shrinking
// source mid-trial, so it defers the source rebuild (and, on rollback,
// the destination's) instead of paying O(members·T) per step. A deferred
// side MUST be re-materialized (or retired via Fold) before it is priced
// again or gains a unit.
func (ls *LoadState) move(u, to int, rematSource, rematDest bool) {
	from := ls.assign[u]
	if from == to {
		return
	}
	mf := ls.members[from]
	for i, x := range mf {
		if x == u {
			copy(mf[i:], mf[i+1:])
			ls.members[from] = mf[:len(mf)-1]
			break
		}
	}
	ls.assign[u] = to
	ls.members[to] = append(ls.members[to], u)
	ls.touch(from, to)
	if rematSource {
		ls.rematerialize(from)
	}
	if rematDest {
		ls.ev.addUnit(u, ls.cpu[to], ls.ram[to], ls.ws[to], ls.rate[to])
		ls.refresh(to)
	}
}

// Fold removes the empty machine label `to` by relabelling the current
// last machine (K-1) onto it and shrinking K — the machine-count
// reduction step. Panics if `to` still hosts units. Only `to`'s member
// list must be current: its cached sums may be stale from deferred moves,
// since Fold overwrites them with machine K-1's state and retires the dead
// slot. On a machine of another capacity class it prices the sums again.
func (ls *LoadState) Fold(to int) {
	from := ls.k - 1
	if to != from {
		if len(ls.members[to]) != 0 {
			panic(fmt.Sprintf("core: LoadState.Fold target machine %d is not empty", to))
		}
		for _, u := range ls.members[from] {
			ls.assign[u] = to
		}
		ls.members[to], ls.members[from] = ls.members[from], ls.members[to]
		ls.cpu[to], ls.cpu[from] = ls.cpu[from], ls.cpu[to]
		ls.ram[to], ls.ram[from] = ls.ram[from], ls.ram[to]
		ls.ws[to], ls.ws[from] = ls.ws[from], ls.ws[to]
		ls.rate[to], ls.rate[from] = ls.rate[from], ls.rate[to]
		copy(ls.sample[to*sampleStride:(to+1)*sampleStride], ls.sample[from*sampleStride:(from+1)*sampleStride])
		ls.contrib[to], ls.contrib[from] = ls.contrib[from], 0
		ls.norm[to], ls.norm[from] = ls.norm[from], 0
		ls.confPairs[to], ls.confPairs[from] = ls.confPairs[from], 0
		ls.slaCap[to], ls.slaCap[from] = ls.slaCap[from], 1
		ls.touch(to, from)
		if ls.ev.capClass[to] != ls.ev.capClass[from] {
			ls.refresh(to)
		}
	}
	ls.k--
}
