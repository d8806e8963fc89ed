package core_test

import (
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// TestPaperFleetsPriceFlatStreams holds the generated fleets to the paper's
// memory model: one working set per server per window (§3.1), at the 0.7
// RAM scale, so the evaluator prices RAM and, under a disk model, the
// working set at one step. A generator change that makes either vary fails
// here instead of slowing every solve by a factor of the horizon.
func TestPaperFleetsPriceFlatStreams(t *testing.T) {
	fleets := map[string]fleet.Fleet{"ALL-197": fleet.All()}
	for _, d := range []fleet.Dataset{fleet.Internal, fleet.Wikia, fleet.Wikipedia, fleet.SecondLife} {
		f := fleet.Generate(d)
		fleets[f.Name] = f
	}
	for name, f := range fleets {
		p := fleetProblem(f)
		p.Disk = goldenDiskProfile()
		if ram, ws := core.FlatStreams(t, p); !ram || !ws {
			t.Errorf("%s: flat RAM %v, flat working set %v: want both priced at one step", name, ram, ws)
		}
	}
}
