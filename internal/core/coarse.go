package core

import (
	"math"
)

// This file implements the coarse-to-fine sweep screen: a lower bound on a
// candidate move's or swap's exact price, computed from a handful of time
// steps instead of all T. Local search tests every candidate against it and
// only falls through to exact O(T) pricing when the bound cannot rule the
// candidate out, so accepted plans are bit-identical to the unscreened
// search (a pruned candidate is one whose priced delta provably could not
// have beaten the best so far).
//
// The bound is a peak-step sample. Each machine keeps the steps where its
// canonical CPU and RAM aggregates peak, overall and within each of
// sampleSegs equal segments of the horizon, plus — under a disk model — the
// step where its predicted write rate peaks; each unit keeps the steps of its
// own CPU and RAM peaks. A candidate's new peak is at least the largest value
// its aggregate takes on the machine's sample and the arriving unit's peak
// steps: a machine's new peak mostly lands where the machine or the newcomer
// already peaked. The same keep-only-what-the-objective-reads discipline
// shows up in workload-compression work (Deep et al., "Comprehensive and
// Efficient Workload Compression"): the sample is a lossy summary of the
// demand series that preserves where peaks can land.
//
// Soundness is bit-level and needs no error envelope. At a sampled step the
// screen evaluates the very expression the exact fill computes there
// (fill: sum ± k·unit; fillExchange: sum − ko·out + ki·in; the disk model's
// PredictWriteMBps of the candidate's working set and rate), so each sampled
// value is one of the values the exact peak scan maximizes over, and a
// maximum over a subset cannot exceed the maximum over all of them — whatever
// the shape of the disk polynomial. The peaks then go through pricePeaks, the
// one peaks → (violation, load) sequence the exact pricers run, which is
// monotone in every peak operation by operation; the saturation envelope's
// per-step addends, all non-negative, are bounded by zero. A stale sample
// would still be sound, only looser: refresh rebuilds it with the sums. A
// move's source is bounded the same way (boundRemove).
//
// A check reads math.Exp only in a narrow band: it is evaluated at both ends
// of a bracket lo ≤ math.Exp(norm) ≤ hi (sideBound), and every operation
// after exp rises with it, so only a delta within the bracket's width of the
// best so far needs the exact value, and pruned candidates are still exactly
// those exact pricing rejects.
//
// A capacity stage runs before the first stage. Most candidates a climb
// considers overflow the receiving machine's CPU or RAM cap where that
// machine already peaks, and the penalty alone rules them out. The stage
// evaluates the first stage's own expression (boundFill's sum + k·unit for
// a move's destination, boundExchange's sum − ko·out + ki·in for each side
// of a swap) at the machine's overall CPU peak step for CPU and its RAM
// peak step for RAM, two of the steps the first stage reads. Only where a
// value exceeds its cap does it run the sweep's check, on pricePeaks' CPU
// and RAM violation terms, the exp term at the bracket's floor capFloor,
// no conflict pairs, and the other side at the same floor (a move's
// removal at the price the first stage reads). That bound is never above
// the first stage's: the same values at a subset of its steps, a violation
// built by the same operations, each monotone, and floors no first-stage
// bracket goes below, since its norm lies in [0, 1] and its violation is
// non-negative when the caps are positive and finite (Problem.Validate). So
// the stage prunes only candidates the first stage prunes, and every count
// but the time stays as it was. A check whose sum comes out −Inf is left
// to the first stage, where the same sum can read Inf − Inf = NaN. A
// sweep fills the stage's per-machine table once per unit it scans
// (capSides). The products are written float64(k·x), a rounding barrier: no
// architecture may fuse one into a multiply-add in one expression and not
// in another, so the stage, the bounds and the exact fills read the same
// bits. TestCapStageNeverStrongerThanFirstStage walks real climbs and
// FuzzScreenDecision random inputs for a prune the first stage would not
// make.
//
// The screen allocates nothing. TestCoarseBoundAllocs pins ScreenAdd,
// screenAddViol and ScreenSwap at zero allocations with the screen on and
// off, and TestSweepsAllocationFree pins the capacity stage, the staged
// checks, the bracket and boundRemove as the sweeps run them. Both skip
// under -race.

// sampleSegs is the number of equal segments of the horizon whose CPU and RAM
// peak steps a machine's sample keeps. Counted on the cold ALL-197
// local-search solve (exact pricings run, of 489 261 candidates considered):
// one segment — the overall peaks alone, beside the arriving unit's own —
// leaves 37 067, two 13 884, four 12 352, eight 9 654, sixteen 9 334. The first stage prunes most
// candidates before the rest of the sample is read, so the solve's time is
// flat from two segments to sixteen (68–75 ms where one takes 80); four is
// where the count stops falling fast.
const sampleSegs = 4

// A machine's sample is sampleStride steps: the overall CPU and RAM peak
// steps first (the sampleGlobal steps a staged screen tries before the rest),
// then the CPU and the RAM peak steps of the other sampleSegs−1 segments, then
// the predicted-write peak step, which only a disk model reads.
const (
	sampleGlobal = 2
	sampleDisk   = 2 * sampleSegs
	sampleStride = sampleDisk + 1
)

// peaks is a running lower bound on a candidate machine's resource peaks:
// the largest candidate aggregate seen so far over sampled steps, floored at
// zero like the exact scans.
type peaks struct{ cpu, ram, disk float64 }

// unitPeakSteps returns, stride 2, the steps at which each unit's own CPU
// and RAM demand peak.
func unitPeakSteps(cpu, ram [][]float64) []int32 {
	steps := make([]int32, 2*len(cpu))
	for u := range cpu {
		argC, argR := 0, 0
		for t := range cpu[u] {
			if cpu[u][t] > cpu[u][argC] {
				argC = t
			}
			if ram[u][t] > ram[u][argR] {
				argR = t
			}
		}
		steps[2*u], steps[2*u+1] = int32(argC), int32(argR)
	}
	return steps
}

// resample rebuilds machine j's CPU and RAM sample steps from its canonical
// sums and returns the two peaks, floored at zero — what peaks2 returns for
// the same sums. Ties go to the earliest step.
func (ls *LoadState) resample(j int) (cpuPeak, ramPeak float64) {
	T := ls.ev.T
	cj, rj := ls.cpu[j][:T], ls.ram[j][:T]
	var segC, segR [sampleSegs]int32
	bestC, bestR := 0, 0
	for s := 0; s < sampleSegs; s++ {
		// An empty segment (T < sampleSegs) keeps its first step, which is
		// some other segment's: any step is a sound one.
		lo, hi := s*T/sampleSegs, (s+1)*T/sampleSegs
		argC, argR := lo, lo
		for t := lo + 1; t < hi; t++ {
			if cj[t] > cj[argC] {
				argC = t
			}
			if rj[t] > rj[argR] {
				argR = t
			}
		}
		segC[s], segR[s] = int32(argC), int32(argR)
		if cj[argC] > cj[segC[bestC]] {
			bestC = s
		}
		if rj[argR] > rj[segR[bestR]] {
			bestR = s
		}
	}
	smp := ls.sample[j*sampleStride : (j+1)*sampleStride]
	smp[0], smp[1] = segC[bestC], segR[bestR]
	n := sampleGlobal
	for s := 0; s < sampleSegs; s++ {
		if s != bestC {
			smp[n] = segC[s]
			n++
		}
	}
	for s := 0; s < sampleSegs; s++ {
		if s != bestR {
			smp[n] = segR[s]
			n++
		}
	}
	if cpuPeak = cj[smp[0]]; cpuPeak < 0 {
		cpuPeak = 0
	}
	if ramPeak = rj[smp[1]]; ramPeak < 0 {
		ramPeak = 0
	}
	return cpuPeak, ramPeak
}

// sampleOf returns machine j's sample: the steps the problem's resources
// read, the first sampleGlobal of them the overall CPU and RAM peaks.
func (ls *LoadState) sampleOf(j int) []int32 {
	return ls.sample[j*sampleStride : j*sampleStride+ls.nSample]
}

// boundFill raises pk to the aggregate machine j would carry at each of the
// given steps with unit u added (sign +1) or taken away (−1), as fill does.
func (ls *LoadState) boundFill(pk *peaks, steps []int32, u, j int, sign float64) {
	ev := ls.ev
	k := sign * ev.scale[u]
	cj, rj := ls.cpu[j], ls.ram[j]
	cu, ru := ev.cpu[u], ev.ram[u]
	for _, t := range steps {
		if v := cj[t] + float64(k*cu[t]); v > pk.cpu {
			pk.cpu = v
		}
		if v := rj[t] + float64(k*ru[t]); v > pk.ram {
			pk.ram = v
		}
	}
	if d := ev.p.Disk; d != nil {
		wj, qj := ls.ws[j], ls.rate[j]
		wu, qu := ev.ws[u], ev.rate[u]
		for _, t := range steps {
			if pred := d.PredictWriteMBps(wj[t]+float64(k*wu[t]), qj[t]+float64(k*qu[t])) * 1e6; pred > pk.disk {
				pk.disk = pred
			}
		}
	}
}

// boundExchange raises pk to the aggregate machine j would carry at each of
// the given steps after its member `out` leaves and unit `in` arrives —
// fillExchange's expression there.
func (ls *LoadState) boundExchange(pk *peaks, steps []int32, j, out, in int) {
	ev := ls.ev
	ko, ki := ev.scale[out], ev.scale[in]
	cj, rj := ls.cpu[j], ls.ram[j]
	co, ro := ev.cpu[out], ev.ram[out]
	ci, ri := ev.cpu[in], ev.ram[in]
	for _, t := range steps {
		if v := cj[t] - float64(ko*co[t]) + float64(ki*ci[t]); v > pk.cpu {
			pk.cpu = v
		}
		if v := rj[t] - float64(ko*ro[t]) + float64(ki*ri[t]); v > pk.ram {
			pk.ram = v
		}
	}
	if d := ev.p.Disk; d != nil {
		wj, qj := ls.ws[j], ls.rate[j]
		wo, qo := ev.ws[out], ev.rate[out]
		wi, qi := ev.ws[in], ev.rate[in]
		for _, t := range steps {
			if pred := d.PredictWriteMBps(wj[t]-float64(ko*wo[t])+float64(ki*wi[t]), qj[t]-float64(ko*qo[t])+float64(ki*qi[t])) * 1e6; pred > pk.disk {
				pk.disk = pred
			}
		}
	}
}

// sideScreen is the screen of one machine side of a candidate — machine j
// gaining a unit (a move's destination) or trading one member for another
// unit (a side of a swap): the SLA cap and conflict pairs the exact pricer
// would apply, and the bound on the side's peaks over the steps sampled so
// far. Screens are staged: the first stage samples the machine's overall peak
// steps and the arriving unit's own, the rest stage the remainder of the
// machine's sample, and bound prices either.
type sideScreen struct {
	pk     peaks
	slaCap float64
	pairs  int
}

// bound prices the side's sampled peaks the way the exact pricers price
// scanned ones — pricePeaks without envelope addends, then contribWith: a
// lower bound on the exact price of the side.
func (ls *LoadState) bound(sc *sideScreen, j int) float64 {
	viol, norm := ls.ev.pricePeaks(j, sc.pk.cpu, sc.pk.ram, sc.pk.disk, sc.slaCap, nil, nil)
	return contribWith(norm, viol, sc.pairs)
}

// bracket sets and returns b: bound's pieces, as the sweeps' checks read them.
func (ls *LoadState) bracket(b *sideBound, sc *sideScreen, j int) *sideBound {
	viol, norm := ls.ev.pricePeaks(j, sc.pk.cpu, sc.pk.ram, sc.pk.disk, sc.slaCap, nil, nil)
	b.set(norm, viol, sc.pairs)
	return b
}

// sideBound is a side's contribution contribWith(norm, viol, pairs), read
// through the bracket lo ≤ it ≤ upper() until value() reads it; an exact
// side holds it in lo.
type sideBound struct {
	norm, viol float64
	pairs      int
	lo         float64
	exact      bool
}

// set brackets contribWith(norm, viol, pairs) from below by the tangent at
// the grid point under norm, or takes its value off the grid's [0, 1].
func (b *sideBound) set(norm, viol float64, pairs int) {
	*b = sideBound{norm: norm, viol: viol, pairs: pairs}
	if !(norm >= 0 && norm <= 1) {
		b.value()
		return
	}
	i := int(norm * expGrid)
	d := norm - float64(i)/expGrid
	b.lo = contribFrom((expE[i]+expE[i]*d)*(1-0x1p-50), viol, pairs)
}

// upper returns the bracket's upper end, from the chord over norm's cell.
func (b *sideBound) upper() float64 {
	if b.exact {
		return b.lo
	}
	i := int(b.norm * expGrid)
	d := b.norm - float64(i)/expGrid
	return contribFrom((expE[i]+expS[i]*d)*(1+0x1p-50), b.viol, b.pairs)
}

// value returns the contribution itself, through math.Exp.
func (b *sideBound) value() float64 {
	if !b.exact {
		b.lo, b.exact = contribWith(b.norm, b.viol, b.pairs), true
	}
	return b.lo
}

// prunes decides the screen check (cu + cv) − base + migU + migV ≥
// bestDelta — sweepSwaps' delta, and bestMove's with cu the source's price
// and migV = 0, which changes no comparison — at the brackets' lower ends,
// then their upper ends, and only when those disagree on the contributions
// themselves: bit for bit the check's answer on the contributions.
func prunes(bu, bv *sideBound, base, migU, migV, bestDelta float64) bool {
	if (bu.lo+bv.lo)-base+migU+migV >= bestDelta {
		return true
	}
	if !((bu.upper()+bv.upper())-base+migU+migV >= bestDelta) {
		return false
	}
	return (bu.value()+bv.value())-base+migU+migV >= bestDelta
}

// expGrid is the number of cells of sideBound's grid aᵢ = i/expGrid on
// [0, 1], a normalized load's range; expE[i] is math.Exp(aᵢ) and expS[i] the
// chord's slope to aᵢ₊₁. The tangent at aᵢ lies under the convex exp on the
// cell, the chord above it, and d = x − aᵢ is exact; a relative 2⁻⁵⁰
// margin, four to eight ulps, covers their rounding and math.Exp's own.
const expGrid = 1024

var expE, expS = expTables()

func expTables() (e, s [expGrid + 1]float64) {
	for i := range e {
		e[i] = math.Exp(float64(i) / expGrid)
	}
	for i := 0; i < expGrid; i++ {
		s[i] = (e[i+1] - e[i]) * expGrid
	}
	return e, s
}

// capFloor is the lowest any side's bracket starts: set's lower end at the
// grid's first point, where norm = 0.
var capFloor = expE[0] * (1 - 0x1p-50)

// capSide is the capacity stage's view of machine j for one unit u: j's
// overall CPU and RAM peak steps (the first sampleGlobal of its sample), its
// sums there, u's share there — scale·series, the product fill and
// fillExchange add — and j's caps.
type capSide struct {
	tc, tr       int32
	cpu, ram     float64
	unitC, unitR float64
	capC, capR   float64
}

// capSides fills and returns ls.capTab: every machine's capacity-stage side
// for unit u.
func (ls *LoadState) capSides(u int) []capSide {
	ev := ls.ev
	k := ev.scale[u]
	cu, ru := ev.cpu[u], ev.ram[u]
	for j := range ls.capTab {
		tc, tr := ls.sample[j*sampleStride], ls.sample[j*sampleStride+1]
		ls.capTab[j] = capSide{
			tc: tc, tr: tr,
			cpu: ls.cpu[j][tc], ram: ls.ram[j][tr],
			unitC: float64(k * cu[tc]), unitR: float64(k * ru[tr]),
			capC: ev.capCPU[j], capR: ev.capRAM[j],
		}
	}
	return ls.capTab
}

// viol returns the violation the side's caps put on the CPU value c at its
// CPU peak step and the RAM value r at its RAM peak step: pricePeaks' CPU
// and RAM terms, in its order; 0 when neither overflows.
func (s *capSide) viol(c, r float64) float64 {
	var viol float64
	if c > s.capC {
		viol += (c - s.capC) / s.capC
	}
	if r > s.capR {
		viol += (r - s.capR) / s.capR
	}
	return viol
}

// add is the violation with the table's unit arriving: a move's
// destination, boundFill's sum + k·unit.
func (s *capSide) add() float64 { return s.viol(s.cpu+s.unitC, s.ram+s.unitR) }

// leave returns the side with the table's unit gone from its machine: a
// swap's side on the unit's own machine, before its partner arrives.
func (s capSide) leave() capSide {
	s.cpu, s.ram = s.cpu-s.unitC, s.ram-s.unitR
	return s
}

// arrive is the violation with the unit of scale k and series c, r arriving
// on a side the table's unit has left: boundExchange's
// sum − ko·out + ki·in with the first product hoisted.
func (s *capSide) arrive(k float64, c, r []float64) float64 {
	return s.viol(s.cpu+float64(k*c[s.tc]), s.ram+float64(k*r[s.tr]))
}

// exchange is the violation with the member of scale k and series c, r
// leaving the side's machine and the table's unit arriving:
// boundExchange's sum − ko·out + ki·in.
func (s *capSide) exchange(k float64, c, r []float64) float64 {
	return s.viol(s.cpu-float64(k*c[s.tc])+s.unitC, s.ram-float64(k*r[s.tr])+s.unitR)
}

// capPrunes decides the capacity stage's check: the sweep's check with the
// side's contribution bounded by contribFrom(capFloor, viol, 0) and the
// other side's by other. A sum of −Inf never prunes: it is where the first
// stage's sum can read Inf − Inf and prune nothing.
func capPrunes(viol, other, base, migU, migV, bestDelta float64) bool {
	d := (contribFrom(capFloor, viol, 0) + other) - base + migU + migV
	return d >= bestDelta && d > math.Inf(-1)
}

// Screened reports whether the sweep screen is active for this state.
func (ls *LoadState) Screened() bool { return !ls.ev.noScreen }

// screenAddFirst is the first stage of the move screen, unit u onto a
// machine j it does not live on.
func (ls *LoadState) screenAddFirst(sc *sideScreen, u, j int) {
	ev := ls.ev
	*sc = sideScreen{slaCap: ls.slaCap[j], pairs: ls.confPairs[j] + ls.conflictsOn(u, j)}
	if c := ev.slaCapU[u]; c < sc.slaCap {
		sc.slaCap = c
	}
	ls.boundFill(&sc.pk, ev.unitPeak[2*u:2*u+2], u, j, +1)
	ls.boundFill(&sc.pk, ls.sampleOf(j)[:sampleGlobal], u, j, +1)
}

// screenAddRest is the rest stage of the move screen.
func (ls *LoadState) screenAddRest(sc *sideScreen, u, j int) {
	ls.boundFill(&sc.pk, ls.sampleOf(j)[sampleGlobal:], u, j, +1)
}

// boundRemove returns a lower bound on PriceRemove(u): fill's sum − k·unit
// at u's machine's sample steps, priced with PriceRemove's cap and pairs.
func (ls *LoadState) boundRemove(u int) float64 {
	from := ls.assign[u]
	if len(ls.members[from]) == 1 {
		return 0
	}
	var pk peaks
	ls.boundFill(&pk, ls.sampleOf(from), u, from, -1)
	viol, norm := ls.ev.pricePeaks(from, pk.cpu, pk.ram, pk.disk, ls.capWithout(from, u), nil, nil)
	return contribWith(norm, viol, ls.confPairs[from]-ls.conflictsOn(u, from))
}

// ScreenAdd returns the screen's lower bound on PriceAdd(u, j) over the whole
// sample, independent of T and with zero allocations. When screening is off
// it returns -Inf (never prunes). Bit-level sound: ScreenAdd(u, j) ≤
// PriceAdd(u, j) always.
func (ls *LoadState) ScreenAdd(u, j int) float64 {
	if ls.ev.noScreen {
		return math.Inf(-1)
	}
	if ls.assign[u] == j {
		return ls.contrib[j]
	}
	var sc sideScreen
	ls.screenAddFirst(&sc, u, j)
	ls.screenAddRest(&sc, u, j)
	return ls.bound(&sc, j)
}

// screenAddViol returns a lower bound on the violation machine j would carry
// after accepting unit u (0 when screening is off): a positive value proves
// the placement infeasible without exact pricing. It stops at the first
// stage when that already finds one.
func (ls *LoadState) screenAddViol(u, j int) float64 {
	if ls.ev.noScreen {
		return 0
	}
	var sc sideScreen
	ls.screenAddFirst(&sc, u, j)
	if viol, _ := ls.ev.pricePeaks(j, sc.pk.cpu, sc.pk.ram, sc.pk.disk, sc.slaCap, nil, nil); viol > 0 {
		return viol
	}
	ls.screenAddRest(&sc, u, j)
	viol, _ := ls.ev.pricePeaks(j, sc.pk.cpu, sc.pk.ram, sc.pk.disk, sc.slaCap, nil, nil)
	return viol
}

// screenExchangeFirst is the first stage of one side of the swap screen,
// machine j trading its member `out` for unit `in`.
func (ls *LoadState) screenExchangeFirst(sc *sideScreen, j, out, in int) {
	ev := ls.ev
	*sc = sideScreen{
		slaCap: ls.capWithout(j, out),
		pairs:  ls.confPairs[j] - ls.conflictsOn(out, j) + ls.conflictsOnExcluding(in, j, out),
	}
	if c := ev.slaCapU[in]; c < sc.slaCap {
		sc.slaCap = c
	}
	ls.boundExchange(&sc.pk, ev.unitPeak[2*in:2*in+2], j, out, in)
	ls.boundExchange(&sc.pk, ls.sampleOf(j)[:sampleGlobal], j, out, in)
}

// screenExchangeRest is the rest stage of one side of the swap screen.
func (ls *LoadState) screenExchangeRest(sc *sideScreen, j, out, in int) {
	ls.boundExchange(&sc.pk, ls.sampleOf(j)[sampleGlobal:], j, out, in)
}

// screenExchange is the whole-sample lower bound on priceExchange(j, out, in).
func (ls *LoadState) screenExchange(j, out, in int) float64 {
	var sc sideScreen
	ls.screenExchangeFirst(&sc, j, out, in)
	ls.screenExchangeRest(&sc, j, out, in)
	return ls.bound(&sc, j)
}

// ScreenSwap returns the screen's lower bounds on both sides of
// PriceSwap(u, v): what u's and v's machines would at least contribute after
// the 2-exchange. Independent of T, zero allocations, -Inf when screening is
// off.
func (ls *LoadState) ScreenSwap(u, v int) (loU, loV float64) {
	if ls.ev.noScreen {
		return math.Inf(-1), math.Inf(-1)
	}
	a, b := ls.assign[u], ls.assign[v]
	if a == b {
		panic("core: LoadState.ScreenSwap units share a machine")
	}
	return ls.screenExchange(a, u, v), ls.screenExchange(b, v, u)
}
