// Package greedy implements the single-resource greedy bin-packing baseline
// the paper compares Kairos against (Section 7.3): "This algorithm considers
// only a single resource, and places each workload in the most loaded server
// where it will fit using a first-fit bin packer. We then discard final
// solutions that violate the constraints on the other resources. We repeat
// this packing once for each resource, then take the solution that requires
// the fewest servers."
//
// The same packer doubles as the cheap upper bound for the consolidation
// engine's binary search on the server count (Section 6).
package greedy

import (
	"fmt"
	"sort"

	"kairos/internal/cpu"
)

// FitsFunc reports whether `item` can join the items already placed in a
// bin without violating any constraint. Implementations close over the full
// multi-resource feasibility check.
type FitsFunc func(bin []int, item int) bool

// Pack assigns items to bins most-loaded-first: items are sorted by
// descending load, and each item goes to the fullest bin that accepts it,
// opening a new bin only when no existing bin fits. It returns the bins
// (each a list of item indices) and whether packing succeeded within
// maxBins. maxBins ≤ 0 means unlimited.
func Pack(loads []float64, fits FitsFunc, maxBins int) ([][]int, bool, error) {
	if fits == nil {
		return nil, false, fmt.Errorf("greedy: nil fits function")
	}
	n := len(loads)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Decreasing load; ties broken by index for determinism.
	sort.SliceStable(order, func(a, b int) bool {
		return loads[order[a]] > loads[order[b]]
	})

	var bins [][]int
	binLoad := []float64{}
	for _, item := range order {
		// Try bins from most to least loaded.
		binOrder := make([]int, len(bins))
		for i := range binOrder {
			binOrder[i] = i
		}
		sort.SliceStable(binOrder, func(a, b int) bool {
			return binLoad[binOrder[a]] > binLoad[binOrder[b]]
		})
		placed := false
		for _, b := range binOrder {
			if fits(bins[b], item) {
				bins[b] = append(bins[b], item)
				binLoad[b] += loads[item]
				placed = true
				break
			}
		}
		if !placed {
			if maxBins > 0 && len(bins) >= maxBins {
				return nil, false, nil
			}
			if !fits(nil, item) {
				// The item does not fit even on an empty bin.
				return nil, false, nil
			}
			bins = append(bins, []int{item})
			binLoad = append(binLoad, loads[item])
		}
	}
	return bins, true, nil
}

// MultiResource runs Pack once per resource dimension (each row of loads is
// one resource's per-item scalar load) and returns the feasible solution
// with the fewest bins, as the paper's greedy baseline does. It returns
// ok=false if no single-resource ordering produces a feasible packing.
func MultiResource(loads [][]float64, fits FitsFunc, maxBins int) ([][]int, bool, error) {
	if err := checkLoads(loads); err != nil {
		return nil, false, err
	}
	packed := make([]packing, len(loads))
	for r, row := range loads {
		packed[r].bins, packed[r].ok, packed[r].err = Pack(row, fits, maxBins)
	}
	return fewestBins(packed)
}

// MultiResourceParallel is MultiResource with the per-resource packings on
// the helpers the CPU budget has free (cpu.Do). A FitsFunc usually closes
// over stateful evaluation scratch, so the caller supplies a factory
// instead of a single function: each worker calls mkFits(worker) once, on
// its own goroutine, and uses what it returns for every packing it runs
// (worker 0 is the caller, and with no slot free it packs every resource
// with mkFits(0), which is MultiResource). Result selection is
// MultiResource's, so the outcome does not depend on how many helpers
// there were.
func MultiResourceParallel(loads [][]float64, mkFits func(worker int) FitsFunc, maxBins int) ([][]int, bool, error) {
	if mkFits == nil {
		return nil, false, fmt.Errorf("greedy: nil fits factory")
	}
	if err := checkLoads(loads); err != nil {
		return nil, false, err
	}
	packed := make([]packing, len(loads))
	fits := make([]FitsFunc, len(loads))
	cpu.Do(len(loads), func(w, r int) {
		if fits[w] == nil {
			fits[w] = mkFits(w)
		}
		packed[r].bins, packed[r].ok, packed[r].err = Pack(loads[r], fits[w], maxBins)
	})
	return fewestBins(packed)
}

// packing is one resource's Pack outcome.
type packing struct {
	bins [][]int
	ok   bool
	err  error
}

// checkLoads validates MultiResource's rows: at least one, all as long.
func checkLoads(loads [][]float64) error {
	if len(loads) == 0 {
		return fmt.Errorf("greedy: no resource dimensions")
	}
	for r, row := range loads {
		if len(row) != len(loads[0]) {
			return fmt.Errorf("greedy: resource %d has %d items, want %d", r, len(row), len(loads[0]))
		}
	}
	return nil
}

// fewestBins returns the feasible packing with the fewest bins, the
// earliest resource's on ties, or ok=false when none is; the first error
// in resource order wins over both.
func fewestBins(packed []packing) ([][]int, bool, error) {
	var best [][]int
	found := false
	for _, p := range packed {
		if p.err != nil {
			return nil, false, p.err
		}
		if p.ok && (!found || len(p.bins) < len(best)) {
			best, found = p.bins, true
		}
	}
	return best, found, nil
}

// Assignment flattens bins into an item → bin index mapping.
func Assignment(bins [][]int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for b, items := range bins {
		for _, it := range items {
			if it >= 0 && it < n {
				out[it] = b
			}
		}
	}
	return out
}
