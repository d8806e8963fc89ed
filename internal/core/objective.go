package core

import (
	"math"
	"math/bits"
	"sort"

	"kairos/internal/cpu"
)

// The pricing kernels in this file (accumulateInto and accumulate, addUnit
// and fillUnit, peak, diskPeak, pricePeaks, evalSums, conflictPairs,
// conflicted) run for every candidate a climb considers, and Eval with its
// reuse table (evalReuse.find) for every DIRECT sample. Each runs a stream
// over its horizon: T steps, or one for a flat RAM or working set (see
// Evaluator.flatRAM). None allocates once Eval's scratch has grown.
// TestEvalScratchAllocs (coarse_test.go) pins Eval at zero allocations on
// table hits and on misses, and the LoadState tests named in loadstate.go
// pin the kernels the pricers share. All of them run with and without the
// disk model, on a flat problem at its one-step horizon and forced to the
// full one, and skip under -race.

// penaltyWeight scales constraint violations so that any violating solution
// scores worse than any feasible one (a feasible K-server solution is at
// most K·e ≈ 2.72·K; violations add penaltyWeight per unit of relative
// excess) — the "constraint violation penalty" wall in Figure 5.
const penaltyWeight = 1e6

// Evaluator computes the consolidation objective for assignments of a fixed
// problem. It precomputes flat per-unit demand arrays so evaluation is tight
// loops over []float64.
type Evaluator struct {
	p     *Problem
	units []unit
	T     int

	// Per-unit demand arrays (length T each). Every slice is a window into
	// one contiguous per-resource backing block (SoA layout), so the
	// pricing loops walk sequential memory instead of chasing the original
	// workloads' scattered series buffers.
	cpu  [][]float64
	ram  [][]float64
	ws   [][]float64
	rate [][]float64

	// flatRAM reports that every unit's RAM series equals its first sample
	// bit for bit, flatWS the same of the working set under a disk model:
	// the paper's memory demand is one gauged working set per window
	// (monitor.ResourceProfile.WorkingSetBytes), so this is the common case.
	// A flat stream's sums are then flat too — a fold of identical inputs in
	// identical order gives identical bits at every step — and the pricers
	// fold and scan it over its horizon, one step, instead of T (ramSteps,
	// wsSteps). Both are false in an Evaluator literal, which is then priced
	// at the full horizon; a test clears them on a clone to compare the two.
	flatRAM, flatWS bool

	// pin[u] is the required machine for unit u, or -1.
	pin []int
	// conflicts[u] lists units that must not share a machine with u,
	// sorted ascending so conflicted can binary-search (it runs inside
	// every PriceAdd/priceExchange call).
	conflicts [][]int
	// slaCapU[u] is the utilization cap unit u's latency SLA imposes on its
	// host machine (1 when the workload declares no SLA).
	slaCapU []float64

	// hasConflicts reports that some conflicts[u] is non-empty; the pair
	// scans of Eval, rematerialize and FitsOneMachine are skipped without it.
	hasConflicts bool

	// unitPeak holds, stride 2, the steps at which each unit's own CPU and
	// RAM demand peak: the steps the sweep screen adds to a machine's sample
	// for an arriving unit (see coarse.go). noScreen turns the screen off
	// for LoadStates built from this evaluator; only the tests that compare
	// screened with unscreened search set it.
	unitPeak []int32
	noScreen bool

	// Per-machine usable capacities after headroom, precomputed so the
	// per-candidate pricers avoid re-deriving them (and copying Machine
	// structs) on every call. Identical bit-for-bit to
	// Machine.capacity(raw); capDisk is 0 without a disk model, which
	// prices no disk budget.
	capCPU  []float64
	capRAM  []float64
	capDisk []float64
	// capClass[j] is the lowest machine index whose three capacities equal
	// machine j's bit for bit. A machine's price reads nothing else of the
	// machine (pricePeaks), so Eval's reuse table keys on the class, and
	// with oneClass — every machine in one class — the machine labels are
	// interchangeable (SolveSharded's concurrent shards and its merge).
	capClass []int32
	oneClass bool

	// Reusable scratch for Eval: per-machine member lists plus one set of
	// aggregate demand buffers (esWS/esRate only with a disk model), grown
	// once and reused across calls so the thousands of evaluations a DIRECT
	// run performs allocate nothing, and the table of machines Eval has
	// already priced. Clone resets them — scratch is mutable state and must
	// not be shared across goroutines.
	emMembers                  [][]int
	esCPU, esRAM, esWS, esRate []float64
	reuse                      *evalReuse

	// packing caches greedySeed's unlimited packing (see solve.go). It is
	// immutable once set, so clones share it.
	packing *greedyPacking

	// Fevals counts assignments evaluated (Eval) plus sweep candidates
	// considered, whether the coarse screen pruned them or they were priced
	// exactly. Candidates skipped because their machines had not changed and
	// climbs reused from an earlier probe add nothing.
	Fevals int
	// stats itemizes the same work (see SolveStats); Clone zeroes it like
	// Fevals and the owner folds a clone's counters back.
	stats SolveStats
}

// envRateFloor (rows/sec) bounds the denominator of the envelope violation
// term. The clamped envelope can reach exactly 0 for large working sets; a
// positive rate there is a real violation (the disk cannot sustain any
// updates), and the floor keeps its penalty finite instead of dividing by
// zero — or, as the old `maxRate > 0` guard did, skipping the check
// entirely and calling the placement feasible.
const envRateFloor = 1.0

// NewEvaluator validates the problem and prepares the evaluation arrays. A
// K-machine assignment uses Machines[0:K], in the order p lists them.
func NewEvaluator(p *Problem) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	units := p.units()
	ev := &Evaluator{
		p:       p,
		units:   units,
		T:       p.Workloads[0].CPU.Len(),
		cpu:     make([][]float64, len(units)),
		ram:     make([][]float64, len(units)),
		ws:      make([][]float64, len(units)),
		rate:    make([][]float64, len(units)),
		pin:     make([]int, len(units)),
		slaCapU: make([]float64, len(units)),
	}
	// Contiguous per-resource backing blocks (SoA): unit u's series live at
	// [u·T, (u+1)·T), so sweeps that touch many units stream through memory
	// instead of dereferencing each workload's own buffer. Each value is the
	// replica's demand, the source sample times its ReplicaLoadScale entry
	// (1 when it has none), rounded once here: no pricer multiplies a demand
	// again, so each reads the same bits, and at scale 1 they are the source's.
	// The units are scaled, and their peak steps (unitPeakSteps) and flatness
	// found, one item each of a cpu.Do: every item writes its own unit's
	// entries, and the flatness flags fold in unit order.
	T := ev.T
	cpuBuf := make([]float64, len(units)*T)
	ramBuf := make([]float64, len(units)*T)
	// A working-set or update-rate stream that no workload carries is all
	// zeros: every unit's row is then one shared zero row, never written.
	wsBuf := streamBlock(p, len(units), T, func(w *Workload) bool { return w.WSBytes != nil })
	rateBuf := streamBlock(p, len(units), T, func(w *Workload) bool { return w.UpdateRate != nil })
	ev.unitPeak = make([]int32, 2*len(units))
	unflat := make([]bool, 2*len(units)) // RAM, working set
	cpu.Do(len(units), func(_, u int) {
		un := units[u]
		wl := &p.Workloads[un.w]
		ev.cpu[u] = cpuBuf[u*T : (u+1)*T : (u+1)*T]
		ev.ram[u] = ramBuf[u*T : (u+1)*T : (u+1)*T]
		ev.ws[u] = unitRow(wsBuf, u, T)
		ev.rate[u] = unitRow(rateBuf, u, T)
		k := 1.0
		if un.replica < len(wl.ReplicaLoadScale) {
			k = wl.ReplicaLoadScale[un.replica]
		}
		scaleInto(ev.cpu[u], wl.CPU.Values, k)
		scaleInto(ev.ram[u], wl.RAMBytes.Values, k)
		if wl.WSBytes != nil {
			scaleInto(ev.ws[u], wl.WSBytes.Values, k)
		}
		if wl.UpdateRate != nil {
			scaleInto(ev.rate[u], wl.UpdateRate.Values, k)
		}
		ev.pin[u] = -1
		if un.replica == 0 && wl.PinTo >= 0 {
			ev.pin[u] = wl.PinTo
		}
		ev.slaCapU[u] = 1
		if wl.SLA != nil {
			ev.slaCapU[u] = wl.SLA.MaxUtilization()
		}
		ev.unitPeak[2*u], ev.unitPeak[2*u+1] = unitPeakSteps(ev.cpu[u], ev.ram[u])
		unflat[2*u] = !flat(ev.ram[u])
		unflat[2*u+1] = p.Disk != nil && !flat(ev.ws[u])
	})

	// Conflicts: replicas of the same workload, plus explicit pairs.
	byWorkload := map[int][]int{}
	for u, un := range units {
		byWorkload[un.w] = append(byWorkload[un.w], u)
	}
	ev.conflicts = make([][]int, len(units))
	addConflict := func(a, b int) {
		ev.conflicts[a] = append(ev.conflicts[a], b)
		ev.conflicts[b] = append(ev.conflicts[b], a)
	}
	for _, us := range byWorkload {
		for i := 0; i < len(us); i++ {
			for j := i + 1; j < len(us); j++ {
				addConflict(us[i], us[j])
			}
		}
	}
	for _, pair := range p.AntiAffinity {
		for _, a := range byWorkload[pair[0]] {
			for _, b := range byWorkload[pair[1]] {
				addConflict(a, b)
			}
		}
	}
	// Sort each conflict list so conflicted can binary-search. Construction
	// order above is deterministic, and sorting makes the final lists a
	// pure function of the problem regardless of it.
	for _, c := range ev.conflicts {
		sort.Ints(c)
		ev.hasConflicts = ev.hasConflicts || len(c) > 0
	}
	ev.capCPU = make([]float64, len(p.Machines))
	ev.capRAM = make([]float64, len(p.Machines))
	ev.capDisk = make([]float64, len(p.Machines))
	ev.capClass = make([]int32, len(p.Machines))
	classes := map[[3]uint64]int32{}
	for j, m := range p.Machines {
		ev.capCPU[j] = m.capacity(float64(m.CPUCapacity))
		ev.capRAM[j] = m.capacity(float64(m.RAMBytes))
		if p.Disk != nil {
			ev.capDisk[j] = m.capacity(float64(m.DiskWriteBps))
		}
		key := [3]uint64{math.Float64bits(ev.capCPU[j]), math.Float64bits(ev.capRAM[j]), math.Float64bits(ev.capDisk[j])}
		c, ok := classes[key]
		if !ok {
			c = int32(j)
			classes[key] = c
		}
		ev.capClass[j] = c
	}
	ev.oneClass = len(classes) == 1
	ev.flatRAM, ev.flatWS = true, p.Disk != nil
	for u := range units {
		ev.flatRAM = ev.flatRAM && !unflat[2*u]
		ev.flatWS = ev.flatWS && !unflat[2*u+1]
	}
	return ev, nil
}

// streamBlock returns a per-unit stream's backing block: a row of T steps
// per unit when some workload carries the stream (has), else one zero row.
func streamBlock(p *Problem, units, T int, has func(*Workload) bool) []float64 {
	for i := range p.Workloads {
		if has(&p.Workloads[i]) {
			return make([]float64, units*T)
		}
	}
	return make([]float64, T)
}

// unitRow returns unit u's row of a streamBlock block.
func unitRow(block []float64, u, T int) []float64 {
	if len(block) == T {
		u = 0 // the shared zero row (or the one unit's)
	}
	return block[u*T : (u+1)*T : (u+1)*T]
}

// scaleInto writes k·src into dst.
func scaleInto(dst, src []float64, k float64) {
	for t, v := range src {
		dst[t] = k * v
	}
}

// flat reports whether a unit's series equals its first sample bit for
// bit. A series that mixes +0 and −0 is not flat: its sums could differ in
// the sign of a zero from step to step.
func flat(s []float64) bool {
	first := math.Float64bits(s[0])
	for _, v := range s[1:] {
		if math.Float64bits(v) != first {
			return false
		}
	}
	return true
}

// ramSteps and wsSteps are the RAM and working-set streams' horizons: the
// leading steps of their sums the pricers fold and scan — one when the
// stream is flat, T otherwise. CPU and the update rate always take T.
func (ev *Evaluator) ramSteps() int {
	if ev.flatRAM {
		return 1
	}
	return ev.T
}

func (ev *Evaluator) wsSteps() int {
	if ev.flatWS {
		return 1
	}
	return ev.T
}

// Clone returns an evaluator that shares ev's immutable problem data (the
// demand arrays, pins, conflict lists and unit peak steps are never
// written after NewEvaluator) but counts its own Fevals and work counters,
// so each worker goroutine of a parallel solve can evaluate assignments
// without locking. The Eval scratch buffers and reuse table are dropped so
// each clone lazily grows its own. Callers that care about totals add the
// clone's counts back deterministically.
func (ev *Evaluator) Clone() *Evaluator {
	c := *ev
	c.Fevals = 0
	c.stats = SolveStats{}
	c.emMembers = nil
	c.esCPU, c.esRAM, c.esWS, c.esRate = nil, nil, nil, nil
	c.reuse = nil
	return &c
}

// fork returns an evaluator per worker of a cpu.Do over n items: ev itself
// for the caller, worker 0, and a clone for each helper there could be. The
// clones are made here, on the caller, before any worker writes to ev.
func (ev *Evaluator) fork(n int) []*Evaluator {
	evs := make([]*Evaluator, n)
	evs[0] = ev
	for w := 1; w < n; w++ {
		evs[w] = ev.Clone()
	}
	return evs
}

// join folds the counters of fork's clones back into ev, in worker order.
func (ev *Evaluator) join(evs []*Evaluator) {
	for _, c := range evs[1:] {
		ev.Fevals += c.Fevals
		ev.stats.add(c.stats)
	}
}

// Stats returns the evaluator's work counters so far (see SolveStats).
func (ev *Evaluator) Stats() SolveStats { return ev.stats }

// NumUnits returns the number of placement units (workloads × replicas).
func (ev *Evaluator) NumUnits() int { return len(ev.units) }

// Units returns the unit descriptors in assignment order.
func (ev *Evaluator) Units() []UnitRef {
	out := make([]UnitRef, len(ev.units))
	for i, u := range ev.units {
		out[i] = UnitRef{Workload: u.w, Replica: u.replica}
	}
	return out
}

// ServerLoad holds one machine's aggregate demands under an assignment.
type ServerLoad struct {
	Machine  int // index in Problem.Machines, as Solution.Assign
	Used     bool
	CPU      []float64 // aggregate CPU over time
	RAMPeak  float64
	CPUPeak  float64
	DiskPeak float64 // predicted write bytes/sec at the worst time step
	// Violation is the summed relative excess over capacity (0 = feasible).
	Violation float64
	// NormLoad is the mean normalized load in [0,1] used by the
	// balance objective.
	NormLoad float64
}

// accumulateInto zeroes the sum buffers (each length T) and adds every
// member's demand series, each stream over its horizon: CPU and RAM
// always, working set and update rate only under a disk model — nothing reads
// them otherwise, and wsSum and rateSum may then be nil. A flat stream's sum
// is written at step 0 alone; LoadState fills its own past the horizon
// (refresh), and nothing else reads a sum there. Member order is significant
// at the bit level: LoadState re-materializes sums with the same loop so its
// canonical state matches serverEval exactly.
func (ev *Evaluator) accumulateInto(members []int, cpuSum, ramSum, wsSum, rateSum []float64) {
	accumulate(members, cpuSum[:ev.T], ev.cpu)
	accumulate(members, ramSum[:ev.ramSteps()], ev.ram)
	if ev.p.Disk != nil {
		accumulate(members, wsSum[:ev.wsSteps()], ev.ws)
		accumulate(members, rateSum[:ev.T], ev.rate)
	}
}

// accumulate is accumulateInto's kernel over one per-unit stream and the
// steps sum spans. It adds four members per pass over the sum, then the rest
// one by one: at each step the additions are the one-member loop's, in member
// order (Go evaluates s + a0 + a1 + … left to right and rounds each sum), for
// a third of its loads and stores on the sum. Every slice is re-sliced to the
// sum's length up front so the inner loops carry no bounds checks.
func accumulate(members []int, sum []float64, series [][]float64) {
	n := len(sum)
	for t := range sum {
		sum[t] = 0
	}
	for ; len(members) >= 4; members = members[4:] {
		a0, a1, a2, a3 := series[members[0]][:n], series[members[1]][:n], series[members[2]][:n], series[members[3]][:n]
		for t := range sum {
			sum[t] = sum[t] + a0[t] + a1[t] + a2[t] + a3[t]
		}
	}
	for _, u := range members {
		a := series[u][:n]
		for t := range sum {
			sum[t] += a[t]
		}
	}
}

// addUnit adds unit u to the sums in place, the next step of accumulate's
// left fold: canonical sums stay canonical with u appended.
func (ev *Evaluator) addUnit(u int, cpuSum, ramSum, wsSum, rateSum []float64) {
	ev.fillUnit(u, false, cpuSum, ramSum, wsSum, rateSum, cpuSum, ramSum, wsSum, rateSum)
}

// fillUnit writes sum + (unit u's demand), or sum − it when sub, into the
// destinations, each stream over its horizon: CPU and RAM always, working
// set and update rate only under a disk model.
func (ev *Evaluator) fillUnit(u int, sub bool, cpuDst, ramDst, wsDst, rateDst, cpuSum, ramSum, wsSum, rateSum []float64) {
	fillSum(cpuDst[:ev.T], cpuSum, ev.cpu[u], sub)
	fillSum(ramDst[:ev.ramSteps()], ramSum, ev.ram[u], sub)
	if ev.p.Disk != nil {
		fillSum(wsDst[:ev.wsSteps()], wsSum, ev.ws[u], sub)
		fillSum(rateDst[:ev.T], rateSum, ev.rate[u], sub)
	}
}

// fillSum is fillUnit's kernel over one stream and the steps dst spans:
// dst = sum + unit, or sum − unit when sub, with every slice re-sliced to
// dst's length so the loops carry no bounds checks.
func fillSum(dst, sum, unit []float64, sub bool) {
	sum, unit = sum[:len(dst)], unit[:len(dst)]
	if sub {
		for t := range dst {
			dst[t] = sum[t] - unit[t]
		}
		return
	}
	for t := range dst {
		dst[t] = sum[t] + unit[t]
	}
}

// peak returns the maximum of a stream over the steps it spans, floored at
// zero: the peak-scan half of evalSums, once for CPU and once for RAM.
func peak(s []float64) (p float64) {
	for _, v := range s {
		if v > p {
			p = v
		}
	}
	return p
}

// diskPeak returns the highest predicted write rate (bytes/sec, floored at
// zero) over the aggregate working-set and update-rate streams, and the
// first step that attains it: the peak-scan half of evalSums for the disk
// model. The rate runs over T steps; the working set holds its last value
// past its horizon, which for a flat one is step 0's at every step.
func (ev *Evaluator) diskPeak(wsSum, rateSum []float64) (peak float64, at int) {
	d := ev.p.Disk
	wsSum = wsSum[:ev.wsSteps()]
	var ws float64
	for t, rate := range rateSum[:ev.T] {
		if t < len(wsSum) {
			ws = wsSum[t]
		}
		if pred := d.PredictWriteMBps(ws, rate) * 1e6; pred > peak {
			peak, at = pred, t
		}
	}
	return peak, at
}

// pricePeaks turns one machine's resource peaks into its summed relative
// violation and normalized balance load — the half of evalSums every pricer
// shares: the exact ones hand it the peaks of a full scan, the sweep screen
// (coarse.go) the peaks over a sample of steps, and both run the one
// floating-point sequence below. slaCap is the utilization cap the member
// set imposes (1 when no member declares an SLA). The saturation envelope is
// the one term that is a sum over steps, not a peak: its addends are
// accumulated here, between the RAM and the disk violation, over the
// aggregate streams wsSum/rateSum (the screen passes none and so bounds them
// by zero; violations are non-negative). The envelope is evaluated once per
// step of the working set's horizon: under a flat working set,
// MaxRowsPerSec runs once, not T times.
func (ev *Evaluator) pricePeaks(j int, cpuPeak, ramPeak, diskPeak, slaCap float64, wsSum, rateSum []float64) (viol, norm float64) {
	cpuCap := ev.capCPU[j]
	ramCap := ev.capRAM[j]
	if cpuPeak > cpuCap {
		viol += (cpuPeak - cpuCap) / cpuCap
	}
	if ramPeak > ramCap {
		viol += (ramPeak - ramCap) / ramCap
	}

	var diskNorm float64
	if d := ev.p.Disk; d != nil {
		diskCap := ev.capDisk[j]
		if d.HasEnvelope && len(rateSum) > 0 {
			// The envelope's boundary rule (TestEnvelopeViolationBoundary):
			// exactly at the envelope is feasible, and a clamped-to-zero envelope admits
			// only a zero rate — strict excess is always a violation, with
			// the denominator floored so the penalty stays finite.
			wsSum = wsSum[:ev.wsSteps()]
			var maxRate, den float64
			for t, rate := range rateSum[:ev.T] {
				if t < len(wsSum) {
					maxRate = d.MaxRowsPerSec(wsSum[t])
					if den = maxRate; den < envRateFloor {
						den = envRateFloor
					}
				}
				if rate > maxRate {
					viol += (rate - maxRate) / den / float64(ev.T)
				}
			}
		}
		if diskPeak > diskCap {
			viol += (diskPeak - diskCap) / diskCap
		}
		diskNorm = diskPeak / diskCap
	}

	// Latency SLAs: the strictest member SLA caps this machine's
	// utilization; exceeding it is a violation even when raw capacity
	// would allow more packing.
	if slaCap < 1 {
		util := cpuPeak / cpuCap
		if r := ramPeak / ramCap; r > util {
			util = r
		}
		if diskNorm > util {
			util = diskNorm
		}
		if util > slaCap {
			viol += (util - slaCap) / slaCap
		}
	}

	// Balance term: the mean normalized load, clamped to [0,1] so exp stays
	// within sane numeric range (the paper normalizes the exponent too).
	norm = (cpuPeak/cpuCap + ramPeak/ramCap + diskNorm) / 3
	if norm > 1 {
		norm = 1
	}
	if norm < 0 {
		norm = 0
	}
	return viol, norm
}

// evalSums prices one machine's aggregated demand vectors: the peak scans,
// each stream over its horizon, then pricePeaks. It allocates nothing, so it
// can run on reusable scratch buffers — the LoadState move-pricing hot path.
func (ev *Evaluator) evalSums(j int, cpuSum, ramSum, wsSum, rateSum []float64, slaCap float64) (viol, norm float64) {
	cpuPeak, ramPeak := peak(cpuSum[:ev.T]), peak(ramSum[:ev.ramSteps()])
	var diskPeak float64
	if ev.p.Disk != nil {
		diskPeak, _ = ev.diskPeak(wsSum, rateSum)
	}
	return ev.pricePeaks(j, cpuPeak, ramPeak, diskPeak, slaCap, wsSum, rateSum)
}

// serverEval computes one machine's load, violation and objective
// contribution given the member unit set, re-aggregating every member's
// full time series. This is the canonical scratch pricer; LoadState
// maintains the same sums incrementally for the local-search hot path.
func (ev *Evaluator) serverEval(j int, members []int) ServerLoad {
	sl := ServerLoad{Machine: j, Used: len(members) > 0}
	if !sl.Used {
		return sl
	}
	cpuSum := make([]float64, ev.T)
	ramSum := make([]float64, ev.ramSteps())
	var wsSum, rateSum []float64
	if ev.p.Disk != nil {
		wsSum = make([]float64, ev.wsSteps())
		rateSum = make([]float64, ev.T)
	}
	ev.accumulateInto(members, cpuSum, ramSum, wsSum, rateSum)
	sl.CPU = cpuSum
	sl.CPUPeak, sl.RAMPeak = peak(cpuSum), peak(ramSum)
	if ev.p.Disk != nil {
		sl.DiskPeak, _ = ev.diskPeak(wsSum, rateSum)
	}
	sl.Violation, sl.NormLoad = ev.pricePeaks(j, sl.CPUPeak, sl.RAMPeak, sl.DiskPeak, ev.slaCap(members), wsSum, rateSum)
	return sl
}

// contribution converts a server load into its objective term.
func contribution(sl ServerLoad) float64 {
	if !sl.Used {
		return 0
	}
	return math.Exp(sl.NormLoad) + float64(penaltyWeight*sl.Violation)
}

// evalReuse is Eval's table of machines it has already priced, keyed on
// (capacity class, member bitset). Eval lists members in ascending unit
// order, so the bitset determines the member list, and the class the caps
// pricePeaks reads: together every bit of the machine's pricing. A DIRECT
// sample differs from its parent in one unit, so all but two of its machines
// are found here, and the table never loses an entry for the life of its
// evaluator: each (class, member set) is summed once, whichever machine of
// the class met it first. Open addressing with linear probing; a slot's full key is stored and
// compared, so a hit is exact, never a hash coincidence. It holds at most two
// new entries per sample of a DIRECT run — less than the rectangles DIRECT
// keeps for those samples — so it needs no cap. Owned by one evaluator:
// Clone drops it.
type evalReuse struct {
	words int         // uint64 words per member bitset
	sets  []uint64    // scratch: the current assignment's bitsets, stride words
	slots []reuseSlot // the table, a power of two long and at most half full
	keys  []uint64    // each slot's member bitset, stride words
	used  int         // occupied slots
	shift uint        // 64 − log2(len(slots)): a hash's top bits index the table
}

// reuseSlot is one priced machine: what Eval adds to the objective for it.
type reuseSlot struct {
	mach  int32   // capacity class + 1 (0 = empty slot)
	pairs int32   // conflicting pairs sharing the machine
	viol  float64 // summed relative violation
	term  float64 // exp(norm) + penaltyWeight·viol
}

// evalReuseBits sizes a new table: 2^11 slots of 24 bytes plus the key words
// (112 KiB for 197 units). A warm Resolve or a recovery calls Eval a handful
// of times and stays there; a DIRECT run doubles it a few times.
const evalReuseBits = 11

// find returns the slot of capacity class j with this member bitset and
// true, or the empty slot where it belongs and false.
func (rt *evalReuse) find(j int, set []uint64) (slot int, held bool) {
	h := uint64(j+1) * 0x9E3779B97F4A7C15
	for _, w := range set {
		h = (h ^ w) * 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	mask := len(rt.slots) - 1
scan:
	for slot = int(h >> rt.shift); rt.slots[slot].mach != 0; slot = (slot + 1) & mask {
		if rt.slots[slot].mach != int32(j+1) {
			continue
		}
		for i, w := range rt.keys[slot*rt.words : (slot+1)*rt.words] {
			if w != set[i] {
				continue scan
			}
		}
		return slot, true
	}
	return slot, false
}

// reserve makes room for n more entries with the table at most half full,
// doubling it — and moving every entry to its slot in the larger table — as
// often as that takes, so the n insertions that follow allocate nothing and
// every scan ends at an empty slot.
func (rt *evalReuse) reserve(n int) {
	size := len(rt.slots)
	if size == 0 {
		size = 1 << evalReuseBits
	}
	for 2*(rt.used+n) > size {
		size *= 2
	}
	if size == len(rt.slots) {
		return
	}
	old, oldKeys := rt.slots, rt.keys
	rt.slots, rt.keys = make([]reuseSlot, size), make([]uint64, size*rt.words)
	rt.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, m := range old {
		if m.mach == 0 {
			continue
		}
		key := oldKeys[i*rt.words : (i+1)*rt.words]
		slot, _ := rt.find(int(m.mach)-1, key)
		rt.slots[slot] = m
		copy(rt.keys[slot*rt.words:], key)
	}
}

// evalScratch returns the per-machine member scratch and zeroed member
// bitsets sized for K machines and ensures the aggregate demand buffers exist
// and the reuse table has room for K more entries, growing each rarely and
// reusing them across calls:
// DIRECT calls Eval thousands of times per solve, and allocating a fresh
// [][]int plus the sum buffers per machine per evaluation dominated its
// profile. Each slot keeps its backing array between calls, so steady-state
// evaluations allocate nothing.
func (ev *Evaluator) evalScratch(K int) (members [][]int, sets []uint64) {
	if cap(ev.emMembers) < K {
		ev.emMembers = make([][]int, K)
	}
	members = ev.emMembers[:K]
	for j := range members {
		members[j] = members[j][:0]
	}
	if len(ev.esCPU) < ev.T {
		ev.esCPU = make([]float64, ev.T)
		ev.esRAM = make([]float64, ev.ramSteps())
		if ev.p.Disk != nil {
			ev.esWS = make([]float64, ev.wsSteps())
			ev.esRate = make([]float64, ev.T)
		}
	}
	rt := ev.reuse
	if rt == nil {
		rt = &evalReuse{words: (len(ev.units) + 63) / 64}
		ev.reuse = rt
	}
	rt.reserve(K) // an Eval adds at most one entry per machine
	if len(rt.sets) < K*rt.words {
		rt.sets = make([]uint64, K*rt.words)
	}
	sets = rt.sets[:K*rt.words]
	for i := range sets {
		sets[i] = 0
	}
	return members, sets
}

// Eval computes the full objective of an assignment over the first K
// machines. An assignment outside [0,K) is a pin-style violation: the unit
// is priced as unplaced (one penaltyWeight, infeasible) and contributes no
// load — exactly the units Report and Plan.String drop — so a plan can
// never price feasible while displaying a missing workload.
//
// A machine whose member set this evaluator has priced before, on it or on
// a machine of the same capacity class, is answered from the reuse table,
// which keeps every one;
// either way its pieces enter obj through one addition sequence, so the
// result does not depend on what the table held.
func (ev *Evaluator) Eval(assign []int, K int) (obj float64, feasible bool) {
	ev.Fevals++
	return ev.eval(assign, K)
}

// eval is Eval without adding to Fevals.
func (ev *Evaluator) eval(assign []int, K int) (obj float64, feasible bool) {
	members, sets := ev.evalScratch(K)
	rt := ev.reuse
	W := rt.words
	feasible = true
	for u, j := range assign {
		if j < 0 || j >= K {
			obj += penaltyWeight
			feasible = false
			continue
		}
		members[j] = append(members[j], u)
		sets[j*W+u>>6] |= 1 << (uint(u) & 63)
		if ev.pin[u] >= 0 && ev.pin[u] != j {
			obj += penaltyWeight
			feasible = false
		}
	}
	for j := 0; j < K; j++ {
		if len(members[j]) == 0 {
			continue
		}
		set := sets[j*W : (j+1)*W]
		class := ev.capClass[j]
		slot, held := rt.find(int(class), set)
		m := &rt.slots[slot]
		if held {
			ev.stats.EvalReused++
		} else {
			ev.stats.EvalPriced++
			// Price the machine on the shared scratch buffers — the same
			// accumulation order and pricing as serverEval, minus its per-call
			// allocations (Eval never needs the aggregate CPU series back).
			ev.accumulateInto(members[j], ev.esCPU, ev.esRAM, ev.esWS, ev.esRate)
			viol, norm := ev.evalSums(j, ev.esCPU, ev.esRAM, ev.esWS, ev.esRate, ev.slaCap(members[j]))
			rt.used++
			copy(rt.keys[slot*W:(slot+1)*W], set)
			*m = reuseSlot{
				mach:  class + 1,
				pairs: int32(ev.conflictPairs(members[j])),
				viol:  viol,
				term:  math.Exp(norm) + float64(penaltyWeight*viol),
			}
		}
		// Anti-affinity: one penaltyWeight per conflicting pair sharing this
		// machine, then the machine's own term.
		for i := int32(0); i < m.pairs; i++ {
			obj += penaltyWeight
		}
		if m.pairs > 0 || m.viol > 0 {
			feasible = false
		}
		obj += m.term
	}
	return obj, feasible
}

// conflictPairs counts the conflicting pairs among the units sharing one
// machine — an O(m²) scan of binary searches, skipped outright when the
// problem declares no conflict at all.
func (ev *Evaluator) conflictPairs(members []int) int {
	if !ev.hasConflicts {
		return 0
	}
	pairs := 0
	for ai, a := range members {
		for _, b := range members[ai+1:] {
			if ev.conflicted(a, b) {
				pairs++
			}
		}
	}
	return pairs
}

// conflicted reports whether units a and b must not share a machine.
// conflicts[a] is sorted, so this is a binary search — it runs inside
// every PriceAdd/priceExchange call, where the old linear scan showed up
// on fleets with wide anti-affinity sets.
func (ev *Evaluator) conflicted(a, b int) bool {
	s := ev.conflicts[a]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == b
}

// FitsOneMachine reports whether the given units can share machine j within
// every resource constraint and without anti-affinity conflicts. Baselines
// (the greedy packer) and what-if tools use it directly.
func (ev *Evaluator) FitsOneMachine(j int, units []int) bool {
	return ev.conflictPairs(units) == 0 && ev.serverEval(j, units).Violation == 0
}

// ServerContrib prices one machine from scratch: the balance and violation
// contribution of the member set plus anti-affinity penalties, re-summing
// every member over each stream's horizon. It is the canonical reference pricer —
// LoadState computes the identical quantity incrementally — and the
// baseline the load-state benchmarks compare against.
func (ev *Evaluator) ServerContrib(j int, members []int) float64 {
	c := contribution(ev.serverEval(j, members))
	for i := ev.conflictPairs(members); i > 0; i-- {
		c += penaltyWeight
	}
	return c
}

// Report computes per-machine loads for a final assignment. Units assigned
// outside [0,K) are dropped, matching Eval's pricing of them as unplaced
// violations.
func (ev *Evaluator) Report(assign []int, K int) []ServerLoad {
	members := make([][]int, K)
	for u, j := range assign {
		if j >= 0 && j < K {
			members[j] = append(members[j], u)
		}
	}
	out := make([]ServerLoad, K)
	for j := 0; j < K; j++ {
		out[j] = ev.serverEval(j, members[j])
	}
	return out
}
