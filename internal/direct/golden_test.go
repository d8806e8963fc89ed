package direct

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// goldenCases are the package's test functions over their boxes.
var goldenCases = []struct {
	name         string
	f            Objective
	lower, upper []float64
}{
	{"sphere-2", func(x []float64) float64 {
		dx, dy := x[0]-0.3, x[1]+0.7
		return dx*dx + dy*dy
	}, []float64{-2, -2}, []float64{2, 2}},
	{"branin-2", func(x []float64) float64 {
		b, c, tt := 5.1/(4*math.Pi*math.Pi), 5/math.Pi, 1/(8*math.Pi)
		v := x[1] - b*x[0]*x[0] + c*x[0] - 6
		return v*v + 10*(1-tt)*math.Cos(x[0]) + 10
	}, []float64{-5, 0}, []float64{10, 15}},
	{"rastrigin-3", rastrigin, []float64{-4.3, -5.12, -3.7}, []float64{5.12, 4.1, 5.12}},
	{"shifted-sphere-6", func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - 0.2*float64(i%3)
			s += d * d
		}
		return s
	}, []float64{-1, -1, -1, -1, -1, -1}, []float64{1, 1, 1, 1, 1, 1}},
}

// goldenBudgets includes an odd budget and ones that cut a batch short.
var goldenBudgets = [...]int{101, 500, 2000}

type goldenResult struct {
	x, f   uint64 // FNV-1a over X's bits; F's bits
	fevals int
}

func hashX(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenMinimize was captured from the one-shot engine (minimizeBatched)
// before the search became resumable: Minimize at each budget must still end
// at the same point with the same value after the same evaluations. (Iters
// is not pinned: the one-shot engine entered, and counted, one more iteration
// that evaluated nothing when a cut batch left a single evaluation unspent.)
// Rows are goldenCases × goldenBudgets in order.
var goldenMinimize = [...]goldenResult{
	{0x96269881d79c1129, 0x3f139f4e43059972, 101},
	{0x5a997c780808e778, 0x3dc55f71df2cbcc3, 499},
	{0xd766bffd163b2e6e, 0x3be7d8577da05200, 1999},
	{0xdae048b0c0369f93, 0x3fd97c7307cc0420, 101},
	{0xddd7f9986b7e1468, 0x3fd976fe2270ed40, 499},
	{0x62b77ba7e254449a, 0x3fd976fca8750960, 1999},
	{0xc218a811a866915f, 0x4000b8189f8d6bbc, 101},
	{0xb713c1fe3a1b452c, 0x3fffd6c4c1e6c3c0, 499},
	{0x84b61c14a9f8878b, 0x3fefdf4f349b3380, 1999},
	{0xa349ac25dd98ade0, 0x3fa6c16c16c16c12, 101},
	{0x353cb6de0c45fd05, 0x3f01c1fa5f678806, 499},
	{0x85dbdd5582db7d05, 0x3ddf889f9d3c7d60, 1999},
}

func TestMinimizeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("captured on amd64; other architectures may fuse multiply-adds and walk another trajectory")
	}
	for ci, c := range goldenCases {
		for bi, budget := range goldenBudgets {
			res, err := Minimize(c.f, c.lower, c.upper, Options{MaxFevals: budget})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenResult{hashX(res.X), math.Float64bits(res.F), res.Fevals}
			if want := goldenMinimize[ci*len(goldenBudgets)+bi]; got != want {
				t.Errorf("%s budget %d: got {%#x, %#x, %d}, want {%#x, %#x, %d}", c.name, budget,
					got.x, got.f, got.fevals, want.x, want.f, want.fevals)
			}
		}
	}
}
