package gen

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"kairos/internal/server"
)

// streamBodies renders the streaming workloads' inputs of one seed.
func streamBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	var out [][]byte
	quiet, err := Quiet(seed, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := Drift(seed, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Stream{quiet, drift} {
		out = append(out, s.Register)
		for _, w := range s.Windows {
			out = append(out, w.Bytes)
		}
	}
	return out
}

// coldBodies renders cold-register's rounds of one seed.
func coldBodies(t *testing.T, seed int64) [][]byte {
	t.Helper()
	rounds, err := Cold(seed, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, round := range rounds {
		for _, cs := range round {
			out = append(out, cs.Body)
		}
	}
	return out
}

// The same seed must give byte-identical request bodies, and another
// seed must change every body the seed is meant to drive.
func TestSeedDeterminesBodies(t *testing.T) {
	a, b, c := streamBodies(t, 7), streamBodies(t, 7), streamBodies(t, 8)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("body counts differ: %d, %d, %d", len(a), len(b), len(c))
	}
	same := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("body %d differs between two generations of seed 7", i)
		}
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	// Only the two stream registrations (the unperturbed fleet) do not
	// depend on the seed.
	if same != 2 {
		t.Errorf("%d of %d bodies are identical under seeds 7 and 8, want only the 2 stream registrations", same, len(a))
	}
}

// cold-register times a fixed suite of instances: the seed decides only
// where in the suite a run starts.
func TestColdSeedRotatesAFixedSuite(t *testing.T) {
	a, again, next := coldBodies(t, 7), coldBodies(t, 7), coldBodies(t, 8)
	perRound := len(a) / 3
	for i := range a {
		if !bytes.Equal(a[i], again[i]) {
			t.Errorf("body %d differs between two generations of seed 7", i)
		}
		// Seed 8 starts one round later in the same suite.
		if want := a[(i+perRound)%len(a)]; !bytes.Equal(next[i], want) {
			t.Errorf("body %d of seed 8 is not body %d of seed 7", i, (i+perRound)%len(a))
		}
	}
	if bytes.Equal(a[0], next[0]) {
		t.Error("seeds 7 and 8 start at the same round")
	}
	if bytes.Equal(a[0], a[perRound]) {
		t.Error("two rounds of the suite are identical")
	}
}

func TestStampRewritesEveryStartUnixInPlace(t *testing.T) {
	s, err := Quiet(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	body := s.Windows[0]
	before := len(body.Bytes)
	const stamp = StampBase + 300*41
	if err := body.Stamp(stamp); err != nil {
		t.Fatal(err)
	}
	if len(body.Bytes) != before {
		t.Fatalf("Stamp changed the body's length from %d to %d", before, len(body.Bytes))
	}
	var wr server.WindowRequest
	if err := json.Unmarshal(body.Bytes, &wr); err != nil {
		t.Fatalf("stamped body no longer decodes: %v", err)
	}
	if len(wr.Workloads) != s.Units {
		t.Fatalf("decoded %d workloads, want %d", len(wr.Workloads), s.Units)
	}
	for _, w := range wr.Workloads {
		if w.StartUnix != stamp {
			t.Fatalf("workload %s has start_unix %d, want %d", w.Name, w.StartUnix, stamp)
		}
	}
	for _, bad := range []int64{0, 999999999, 10000000000, -StampBase} {
		if err := body.Stamp(bad); err == nil {
			t.Errorf("Stamp(%d) accepted a value that is not ten digits wide", bad)
		}
	}
}

// Whatever the seed, every step between successive drift states (the
// wrap-around included) must cross the detector's 4% threshold for some
// workload, and no workload's residual against the midpoint the re-solve
// rebases on may reach it: one trigger per episode, on its first window.
func TestDriftStepsFireOnceWhateverTheSeed(t *testing.T) {
	const threshold = 0.04
	for seed := int64(0); seed < 50; seed++ {
		states := DriftFactors(seed, 197, 6)
		for i := range states {
			from, to := states[i], states[(i+1)%len(states)]
			var biggest, residual float64
			for w := range from {
				biggest = math.Max(biggest, math.Abs(to[w]-from[w])/from[w])
				mid := (from[w] + to[w]) / 2
				residual = math.Max(residual, math.Abs(to[w]-mid)/mid)
			}
			if biggest < threshold+0.01 {
				t.Errorf("seed %d step %d: largest shift %.4f does not clear the threshold", seed, i, biggest)
			}
			if residual+QuietNoise >= threshold {
				t.Errorf("seed %d step %d: residual %.4f would fire a second trigger", seed, i, residual)
			}
		}
	}
}

func TestDriftWantsAnEvenNumberOfStates(t *testing.T) {
	if _, err := Drift(1, true, 3); err == nil {
		t.Error("Drift accepted 3 states; the movers would not alternate across the wrap-around")
	}
}
