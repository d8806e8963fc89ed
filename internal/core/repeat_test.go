package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/greedy"
)

// The tests in this file hold the solver's "do not redo it" cuts to the
// answers of the work they skip, on the paper's fleets.

// constrainFleet adds what the plain fleets lack: latency SLAs on a fifth of
// the workloads and, with conflicts, replicas plus explicit anti-affinity.
func constrainFleet(p *core.Problem, rng *rand.Rand, sla, conflicts bool) {
	n := len(p.Workloads)
	for i := range p.Workloads {
		if sla && rng.Float64() < 0.2 {
			p.Workloads[i].SLA = &core.LatencySLA{MaxSlowdown: 2 + rng.Float64()*2}
		}
		if conflicts && rng.Float64() < 0.2 {
			p.Workloads[i].Replicas = 2
		}
	}
	for i := 0; conflicts && i < n/4; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			p.AntiAffinity = append(p.AntiAffinity, [2]int{a, b})
		}
	}
}

// TestGreedyFitsMatchesScratchPricer runs a whole MultiResource packing —
// one closure across every resource pass, as packGreedy does — on the five
// fleets with and without the disk model, SLA caps and conflicts, and holds
// every fits call to the serverEval-based answer. Afterwards the same
// closure is handed bins it has never seen in that shape: reordered, cut
// short, merged, and ones whose first member heads a different bin it
// remembers.
func TestGreedyFitsMatchesScratchPricer(t *testing.T) {
	fleets := map[string]fleet.Fleet{}
	for _, d := range fleet.Datasets() {
		fleets[d.String()] = fleet.Generate(d)
	}
	if raceEnabled {
		// Single-goroutine arithmetic, ~15× slower under the race detector:
		// the two small fleets still cover every variant.
		delete(fleets, fleet.Wikipedia.String())
		delete(fleets, fleet.SecondLife.String())
	} else {
		fleets["ALL"] = fleet.All()
	}
	for name, f := range fleets {
		for variant := 0; variant < 8; variant++ {
			disk, sla, conflicts := variant&1 != 0, variant&2 != 0, variant&4 != 0
			label := fmt.Sprintf("%s disk=%v sla=%v conflicts=%v", name, disk, sla, conflicts)
			rng := rand.New(rand.NewSource(int64(variant)))
			p := fleetProblem(f)
			if disk {
				p.Disk = goldenDiskProfile()
			}
			constrainFleet(p, rng, sla, conflicts)
			ev, err := core.NewEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			// The reference re-sums bin+item through the scratch pricer
			// (FitsOneMachine) after the packer's own conflict check, item
			// against members, rebuilt here from the problem.
			units := ev.Units()
			apart := map[[2]int]bool{}
			for _, pair := range p.AntiAffinity {
				apart[pair], apart[[2]int{pair[1], pair[0]}] = true, true
			}
			conflicted := func(a, b int) bool {
				wa, wb := units[a].Workload, units[b].Workload
				return a != b && (wa == wb || apart[[2]int{wa, wb}])
			}
			clean := func(bin []int) bool {
				for i, a := range bin {
					for _, b := range bin[i+1:] {
						if conflicted(a, b) {
							return false
						}
					}
				}
				return true
			}
			fits := ev.GreedyFits()
			ref := func(bin []int, item int) bool {
				for _, b := range bin {
					if conflicted(b, item) {
						return false
					}
				}
				return ev.FitsOneMachine(0, append(append([]int(nil), bin...), item))
			}
			calls, accepted := 0, 0
			checked := func(bin []int, item int) bool {
				got, want := fits(bin, item), ref(bin, item)
				if got != want {
					t.Fatalf("%s: call %d: fits(%v, %d) = %v, scratch pricer says %v", label, calls, bin, item, got, want)
				}
				calls++
				if got {
					accepted++
				}
				return got
			}
			loads := ev.GreedyLoads()
			bins, ok, err := greedy.MultiResource(loads, checked, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				// An SLA tighter than any machine allows packs nowhere.
				continue
			}
			if accepted == 0 || accepted == calls {
				t.Fatalf("%s: %d of %d fits calls accepted, want both verdicts", label, accepted, calls)
			}
			nU := ev.NumUnits()
			for trial := 0; trial < 200; trial++ {
				a, b := bins[rng.Intn(len(bins))], bins[rng.Intn(len(bins))]
				var bin []int
				switch trial % 4 {
				case 0: // a remembered bin cut short
					bin = append(bin, a[:rng.Intn(len(a)+1)]...)
				case 1: // the same members, another order
					bin = append(bin, a...)
					rng.Shuffle(len(bin), func(i, j int) { bin[i], bin[j] = bin[j], bin[i] })
				case 2: // a's head in front of b's members
					bin = append(bin, a[0])
					for _, u := range b {
						if u != a[0] {
							bin = append(bin, u)
						}
					}
				case 3: // units drawn anywhere
					for _, u := range rng.Perm(nU)[:1+rng.Intn(6)] {
						bin = append(bin, u)
					}
				}
				// FitsOneMachine also refuses conflicts among the bin's own
				// members, which the packer never creates and never checks.
				if clean(bin) {
					checked(bin, rng.Intn(nU))
				}
			}
		}
	}
}
