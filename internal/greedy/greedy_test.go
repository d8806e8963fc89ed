package greedy

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// capFits returns a FitsFunc enforcing a simple capacity on summed loads.
func capFits(loads []float64, capacity float64) FitsFunc {
	return func(bin []int, item int) bool {
		sum := loads[item]
		for _, i := range bin {
			sum += loads[i]
		}
		return sum <= capacity
	}
}

func TestPackValidation(t *testing.T) {
	if _, _, err := Pack([]float64{1}, nil, 0); err == nil {
		t.Error("nil fits accepted")
	}
}

func TestPackSimple(t *testing.T) {
	loads := []float64{0.6, 0.5, 0.4, 0.3, 0.2}
	bins, ok, err := Pack(loads, capFits(loads, 1.0), 0)
	if err != nil || !ok {
		t.Fatalf("pack failed: ok=%v err=%v", ok, err)
	}
	if len(bins) != 2 {
		t.Errorf("bins = %d, want 2 (0.6+0.4, 0.5+0.3+0.2)", len(bins))
	}
	// Every item placed exactly once.
	seen := map[int]int{}
	for _, b := range bins {
		for _, i := range b {
			seen[i]++
		}
	}
	for i := range loads {
		if seen[i] != 1 {
			t.Errorf("item %d placed %d times", i, seen[i])
		}
	}
}

func TestPackRespectsMaxBins(t *testing.T) {
	loads := []float64{0.9, 0.9, 0.9}
	_, ok, err := Pack(loads, capFits(loads, 1.0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("3 incompressible items should not fit in 2 bins")
	}
	bins, ok, err := Pack(loads, capFits(loads, 1.0), 3)
	if err != nil || !ok || len(bins) != 3 {
		t.Errorf("should fit in 3 bins: ok=%v len=%d err=%v", ok, len(bins), err)
	}
}

func TestPackImpossibleItem(t *testing.T) {
	loads := []float64{2.0}
	_, ok, err := Pack(loads, capFits(loads, 1.0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("oversized item should fail packing")
	}
}

func TestPackPrefersMostLoadedBin(t *testing.T) {
	// First-fit into the most loaded bin: after placing 0.5 and 0.4 in one
	// bin... capacity 1.0: items sorted 0.5, 0.4, 0.3: 0.5→bin0; 0.4→bin0
	// (0.9); 0.3 does not fit bin0 → bin1.
	loads := []float64{0.5, 0.4, 0.3}
	bins, ok, err := Pack(loads, capFits(loads, 1.0), 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(bins) != 2 || len(bins[0]) != 2 {
		t.Errorf("unexpected packing %v", bins)
	}
}

func TestMultiResourcePicksBest(t *testing.T) {
	// Resource 0 ordering packs into 2 bins; resource 1 ordering leads to
	// the same or worse. The combined fits respects both capacities.
	cpu := []float64{0.6, 0.4, 0.5, 0.5}
	ram := []float64{0.3, 0.3, 0.3, 0.3}
	fits := func(bin []int, item int) bool {
		c, r := cpu[item], ram[item]
		for _, i := range bin {
			c += cpu[i]
			r += ram[i]
		}
		return c <= 1.0 && r <= 1.0
	}
	bins, ok, err := MultiResource([][]float64{cpu, ram}, fits, 0)
	if err != nil || !ok {
		t.Fatalf("multi-resource failed: %v %v", ok, err)
	}
	if len(bins) != 2 {
		t.Errorf("bins = %d, want 2", len(bins))
	}
}

func TestMultiResourceValidation(t *testing.T) {
	if _, _, err := MultiResource(nil, func([]int, int) bool { return true }, 0); err == nil {
		t.Error("no dimensions accepted")
	}
	if _, _, err := MultiResource([][]float64{{1, 2}, {1}}, func([]int, int) bool { return true }, 0); err == nil {
		t.Error("ragged dimensions accepted")
	}
}

func TestMultiResourceAllFail(t *testing.T) {
	loads := [][]float64{{2, 2}}
	_, ok, err := MultiResource(loads, capFits(loads[0], 1.0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("infeasible instance reported ok")
	}
}

func TestAssignment(t *testing.T) {
	bins := [][]int{{2, 0}, {1}}
	got := Assignment(bins, 4)
	want := []int{0, 1, 0, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Assignment[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Property: packing with a sum-capacity fits never overfills a bin and
// places every item exactly once.
func TestPropertyPackSound(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		loads := make([]float64, len(raw))
		for i, r := range raw {
			loads[i] = float64(r%100) / 100 // in [0, 0.99]
		}
		bins, ok, err := Pack(loads, capFits(loads, 1.0), 0)
		if err != nil || !ok {
			return false
		}
		seen := make([]bool, len(loads))
		for _, b := range bins {
			var sum float64
			for _, i := range b {
				if seen[i] {
					return false
				}
				seen[i] = true
				sum += loads[i]
			}
			if sum > 1.0+1e-9 {
				return false
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: greedy never uses more bins than items, and at least
// ceil(total/capacity) bins.
func TestPropertyBinCountBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 30 {
			raw = raw[:30]
		}
		loads := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			loads[i] = float64(r%90+1) / 100
			total += loads[i]
		}
		bins, ok, err := Pack(loads, capFits(loads, 1.0), 0)
		if err != nil || !ok {
			return false
		}
		lower := int(total) // floor(total/1.0) ≤ ceil
		return len(bins) <= len(loads) && len(bins) >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// MultiResourceParallel must agree with MultiResource exactly, including
// tie-breaks, at every GOMAXPROCS, and ask each worker for one FitsFunc.
func TestMultiResourceParallelMatchesSequential(t *testing.T) {
	cpu := []float64{0.5, 0.4, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1}
	ram := []float64{0.2, 0.3, 0.5, 0.1, 0.4, 0.2, 0.3, 0.1}
	upd := []float64{0.1, 0.1, 0.2, 0.6, 0.1, 0.3, 0.2, 0.2}
	loads := [][]float64{cpu, ram, upd}
	fits := func(bin []int, item int) bool {
		for _, row := range loads {
			sum := row[item]
			for _, i := range bin {
				sum += row[i]
			}
			if sum > 1.0 {
				return false
			}
		}
		return true
	}
	seqBins, seqOK, err := MultiResource(loads, fits, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var made [3]atomic.Int64
		prev := runtime.GOMAXPROCS(workers)
		parBins, parOK, err := MultiResourceParallel(loads, func(w int) FitsFunc {
			made[w].Add(1)
			return fits
		}, 0)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for w := range made {
			if n := made[w].Load(); n > 1 {
				t.Errorf("workers=%d: worker %d made %d fits functions", workers, w, n)
			}
		}
		if parOK != seqOK || len(parBins) != len(seqBins) {
			t.Fatalf("workers=%d: ok=%v bins=%d, want ok=%v bins=%d",
				workers, parOK, len(parBins), seqOK, len(seqBins))
		}
		for b := range seqBins {
			if len(parBins[b]) != len(seqBins[b]) {
				t.Errorf("workers=%d: bin %d = %v, want %v", workers, b, parBins[b], seqBins[b])
				continue
			}
			for i := range seqBins[b] {
				if parBins[b][i] != seqBins[b][i] {
					t.Errorf("workers=%d: bin %d = %v, want %v", workers, b, parBins[b], seqBins[b])
					break
				}
			}
		}
	}
}

func TestMultiResourceParallelValidation(t *testing.T) {
	if _, _, err := MultiResourceParallel(nil, func(int) FitsFunc { return nil }, 0); err == nil {
		t.Error("empty loads accepted")
	}
	if _, _, err := MultiResourceParallel([][]float64{{1}}, nil, 0); err == nil {
		t.Error("nil factory accepted")
	}
	if _, _, err := MultiResourceParallel([][]float64{{1, 2}, {1}}, func(int) FitsFunc { return nil }, 0); err == nil {
		t.Error("ragged loads accepted")
	}
}
