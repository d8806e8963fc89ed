// The memoized disk-envelope pricing hot path of re-solves under the disk
// model. `make bench-resolve` runs it with allocation stats; warm against
// cold re-solves are the scenario ledger's rows (internal/core's
// BenchmarkResolveMatrix, gated by make bench-counts).
package kairos

import (
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/model"
	"kairos/internal/polyfit"
)

// benchSyntheticDiskProfile hand-writes a disk model with a saturation
// envelope so the envelope-pricing hot path runs without a profiler sweep.
func benchSyntheticDiskProfile() *model.DiskProfile {
	return &model.DiskProfile{
		Fit:         polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.002, 0.003, 0, 0, 0}},
		Envelope:    polyfit.Poly1D{Coeffs: []float64{60000, -0.9}},
		HasEnvelope: true,
		WSMinMB:     100,
		WSMaxMB:     100000,
	}
}

// BenchmarkLoadStateSweepEnvelope measures a full hill-climb pricing sweep
// with the non-linear disk model and its saturation envelope enabled — the
// path where every candidate move used to re-evaluate the envelope
// polynomial per time step for both machines. The per-evaluator memo
// serves repeat working sets from a direct-mapped cache (bit-identical to
// the polynomial), and pricing stays allocation-free.
func BenchmarkLoadStateSweepEnvelope(b *testing.B) {
	f := fleet.All()
	p := fleetProblem(f, benchSyntheticDiskProfile())
	ev, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	nU := ev.NumUnits()
	K := ev.FractionalLowerBound()
	assign := make([]int, nU)
	for u := range assign {
		assign[u] = u % K
	}
	ls := core.NewLoadState(ev, assign, K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += sweepLoadState(ls, K)
	}
}
