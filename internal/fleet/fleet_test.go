package fleet

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"kairos/internal/floats"
	"kairos/internal/series"
)

func TestDatasetSizes(t *testing.T) {
	want := map[Dataset]int{Internal: 25, Wikia: 35, Wikipedia: 40, SecondLife: 97}
	total := 0
	for d, n := range want {
		f := Generate(d)
		if len(f.Servers) != n {
			t.Errorf("%v: %d servers, want %d", d, len(f.Servers), n)
		}
		total += n
	}
	all := All()
	if len(all.Servers) != total {
		t.Errorf("ALL: %d servers, want %d", len(all.Servers), total)
	}
}

func TestMeanUtilizationUnder4Percent(t *testing.T) {
	// The paper's headline: across almost 200 production servers, average
	// CPU utilization below 4%.
	all := All()
	mean := all.MeanCPUUtilization()
	if mean <= 0 || mean >= 0.07 {
		t.Errorf("fleet mean CPU = %.3f, want < 0.07 (paper: <4%%)", mean)
	}
}

func TestTraceShape(t *testing.T) {
	f := Generate(Wikipedia)
	for _, s := range f.Servers[:3] {
		if s.CPU.Len() != SamplesPerDay {
			t.Errorf("%s: %d samples, want %d", s.Name, s.CPU.Len(), SamplesPerDay)
		}
		if s.CPU.Step != SampleStep {
			t.Errorf("%s: step %v, want %v", s.Name, s.CPU.Step, SampleStep)
		}
		if s.CPU.Min() < 0 || s.CPU.Max() > 1 {
			t.Errorf("%s: CPU outside [0,1]: min=%v max=%v", s.Name, s.CPU.Min(), s.CPU.Max())
		}
		if s.WSBytes.Min() <= 0 {
			t.Errorf("%s: non-positive working set", s.Name)
		}
		if s.UpdateRate.Min() <= 0 {
			t.Errorf("%s: non-positive update rate", s.Name)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := Generate(Wikia), Generate(Wikia)
	for i := range a.Servers {
		sa, sb := a.Servers[i], b.Servers[i]
		if sa.Cores != sb.Cores || sa.RAMBytes != sb.RAMBytes {
			t.Fatal("hardware differs between runs")
		}
		for t2 := range sa.CPU.Values {
			if !floats.Same(sa.CPU.Values[t2], sb.CPU.Values[t2]) {
				t.Fatal("CPU traces differ between runs")
			}
		}
	}
}

func TestDatasetsDiffer(t *testing.T) {
	a, b := Generate(Internal), Generate(Wikia)
	if floats.Same(a.Servers[0].CPU.Values[0], b.Servers[0].CPU.Values[0]) &&
		floats.Same(a.Servers[1].CPU.Values[7], b.Servers[1].CPU.Values[7]) {
		t.Error("different datasets produced identical traces")
	}
}

func TestDiurnalCycle(t *testing.T) {
	// Wikipedia is strongly diurnal and correlated: the aggregate trace
	// must show a clear peak-to-trough swing.
	f := Generate(Wikipedia)
	agg := f.AggregateCPU()
	if agg.Max() < 1.8*agg.Min() {
		t.Errorf("weak diurnal swing: min=%.3f max=%.3f", agg.Min(), agg.Max())
	}
}

func TestSecondLifeSnapshotSpike(t *testing.T) {
	// The paper: "the late-night peaks are due to a pool of 27 database
	// machines performing snapshot operations." The 3 AM window must show
	// markedly higher load than the 9 AM window on snapshot machines.
	f := Generate(SecondLife)
	idx := func(hour float64) int { return int(hour * 12) } // 5-min samples
	var night, morning float64
	for _, s := range f.Servers[:27] {
		night += s.CPU.Values[idx(3)]
		morning += s.CPU.Values[idx(9)]
	}
	if night < 2*morning {
		t.Errorf("snapshot spike missing: 3AM=%.3f vs 9AM=%.3f", night, morning)
	}
	// Non-snapshot servers have no such spike.
	var night2, evening2 float64
	for _, s := range f.Servers[27:] {
		night2 += s.CPU.Values[idx(3)]
		evening2 += s.CPU.Values[idx(19)]
	}
	if night2 > evening2 {
		t.Errorf("non-snapshot servers should peak in the evening: 3AM=%.3f 7PM=%.3f", night2, evening2)
	}
}

func TestWeeklyGeneration(t *testing.T) {
	f := GenerateWeeks(Wikipedia, 3)
	wantLen := 3 * 7 * SamplesPerDay
	if got := f.Servers[0].CPU.Len(); got != wantLen {
		t.Fatalf("weekly trace length = %d, want %d", got, wantLen)
	}
	// Weekend dip: Saturday's (day 5) average must be below Wednesday's
	// (day 2) for the strongly-correlated Wikipedia fleet.
	agg := f.AggregateCPU()
	dayMean := func(day int) float64 {
		s, _ := agg.Slice(day*SamplesPerDay, (day+1)*SamplesPerDay)
		return s.Mean()
	}
	if dayMean(5) >= dayMean(2) {
		t.Errorf("no weekend dip: sat=%.3f wed=%.3f", dayMean(5), dayMean(2))
	}
}

func TestWorkloadsNormalization(t *testing.T) {
	f := Generate(Internal)
	wls := f.Workloads(0.7)
	if len(wls) != len(f.Servers) {
		t.Fatalf("workload count mismatch")
	}
	for i, w := range wls {
		s := f.Servers[i]
		wantScale := float64(s.Cores) * s.ClockGHz / (12 * 3.0)
		if math.Abs(w.CPU.Values[0]-s.CPU.Values[0]*wantScale) > 1e-12 {
			t.Errorf("server %d: CPU normalization wrong", i)
		}
		if math.Abs(w.RAMBytes.Values[0]-s.WSBytes.Values[0]*0.7) > 1 {
			t.Errorf("server %d: RAM scaling wrong", i)
		}
		if w.CPU.Max() > 1 {
			t.Errorf("server %d: normalized CPU %v exceeds one target machine", i, w.CPU.Max())
		}
	}
	// ramScale ≤ 0 means no scaling.
	raw := f.Workloads(0)
	if math.Abs(raw[0].RAMBytes.Values[0]-f.Servers[0].WSBytes.Values[0]) > 1 {
		t.Error("zero ramScale should mean unscaled")
	}
}

func TestTotalCoresPlausible(t *testing.T) {
	// The paper's ALL dataset has 1419 cores across 197 servers (≈7.2
	// average); our generator should land in the same regime.
	all := All()
	cores := all.TotalCores()
	perServer := float64(cores) / float64(len(all.Servers))
	if perServer < 5 || perServer > 12 {
		t.Errorf("average cores/server = %.1f, want ≈7", perServer)
	}
}

func TestTargetMachine(t *testing.T) {
	m := TargetMachine("t", 50e6, 0.05)
	if m.CPUCapacity != 1 || m.RAMBytes != 96e9 || m.Headroom != 0.05 {
		t.Errorf("unexpected target machine %+v", m)
	}
}

func TestAggregateCPUMatchesManualSum(t *testing.T) {
	f := Generate(Wikia)
	agg := f.AggregateCPU()
	wls := f.Workloads(1)
	var manual float64
	for _, w := range wls {
		manual += w.CPU.Values[10]
	}
	if math.Abs(agg.Values[10]-manual) > 1e-9 {
		t.Errorf("aggregate mismatch: %v vs %v", agg.Values[10], manual)
	}
	var _ *series.Series = agg
}

func TestDatasetStringer(t *testing.T) {
	for _, d := range Datasets() {
		if d.String() == "" {
			t.Error("empty dataset name")
		}
	}
	if Dataset(42).String() == "" {
		t.Error("unknown dataset should still render")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate(Wikia)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "wikia-restored")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "wikia-restored" {
		t.Errorf("name = %q", got.Name)
	}
	if len(got.Servers) != len(orig.Servers) {
		t.Fatalf("servers = %d, want %d", len(got.Servers), len(orig.Servers))
	}
	for i, s := range got.Servers {
		o := orig.Servers[i]
		if s.Name != o.Name || s.Cores != o.Cores || s.RAMBytes != o.RAMBytes {
			t.Fatalf("server %d metadata mismatch", i)
		}
		if s.CPU.Len() != o.CPU.Len() {
			t.Fatalf("server %d trace length mismatch", i)
		}
		for t2 := range s.CPU.Values {
			if math.Abs(s.CPU.Values[t2]-o.CPU.Values[t2]) > 1e-6 {
				t.Fatalf("server %d sample %d: %v != %v", i, t2, s.CPU.Values[t2], o.CPU.Values[t2])
			}
		}
	}
	// Restored fleets consolidate identically (within CSV rounding).
	if math.Abs(got.MeanCPUUtilization()-orig.MeanCPUUtilization()) > 1e-5 {
		t.Error("mean utilization changed through round trip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"bad header", "a,b,c\n"},
		{"no rows", "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\n"},
		{"bad cores", "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\nx,NOPE,3,1,0,0.5,100,1\n"},
		{"bad value", "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\nx,4,3,1,0,NOPE,100,1\n"},
		{"ragged", "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\n" +
			"x,4,3,1,0,0.5,100,1\nx,4,3,1,1,0.5,100,1\ny,4,3,1,0,0.5,100,1\n"},
		// Per-server metadata must be constant: conflicting later rows are
		// corruption, not something to silently ignore.
		{"cores conflict", "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\n" +
			"x,4,3,1,0,0.5,100,1\nx,8,3,1,1,0.5,100,1\n"},
		{"clock conflict", "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\n" +
			"x,4,3,1,0,0.5,100,1\nx,4,2.5,1,1,0.5,100,1\n"},
		{"ram conflict", "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\n" +
			"x,4,3,1,0,0.5,100,1\nx,4,3,2,1,0.5,100,1\n"},
		// strconv.ParseFloat takes all of these; a trace may not carry them.
		{"poison row", csvHead + "srv,4,2.5,1000,0,NaN,-5,+Inf\n"},
		{"NaN cpu", csvHead + "x,4,3,1,0,NaN,100,1\n"},
		{"negative ws", csvHead + "x,4,3,1,0,0.5,-5,1\n"},
		{"infinite updates", csvHead + "x,4,3,1,0,0.5,100,+Inf\n"},
		{"negative infinite cpu", csvHead + "x,4,3,1,0,-inf,100,1\n"},
		{"NaN clock", csvHead + "x,4,nan,1,0,0.5,100,1\n"},
		{"negative clock", csvHead + "x,4,-3,1,0,0.5,100,1\n"},
		// The sample column is the row's index in its server's trace.
		{"shuffled", csvHead + "x,4,3,1,1,0.5,100,1\nx,4,3,1,0,0.6,100,1\n"},
		{"repeated sample", csvHead + "x,4,3,1,0,0.5,100,1\nx,4,3,1,0,0.6,100,1\n"},
		{"dropped sample", csvHead + "x,4,3,1,0,0.5,100,1\nx,4,3,1,2,0.6,100,1\n"},
		{"first sample not 0", csvHead + "x,4,3,1,1,0.5,100,1\n"},
		{"bad sample", csvHead + "x,4,3,1,first,0.5,100,1\n"},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.data), "t"); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Errors name the row; servers may interleave, each counting its own.
	if _, err := ReadCSV(strings.NewReader(csvHead+"x,4,3,1,0,0.5,100,1\nx,4,3,1,1,0.5,NaN,1\n"), "t"); err == nil || !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), "ws_bytes") {
		t.Errorf("NaN in row 2: error %v does not name the row and column", err)
	}
	f, err := ReadCSV(strings.NewReader(csvHead+"x,4,3,1,0,0.5,100,1\ny,4,3,1,0,0.1,100,1\nx,4,3,1,1,0.6,100,1\ny,4,3,1,1,0.2,100,1\n"), "t")
	if err != nil || len(f.Servers) != 2 || f.Servers[0].CPU.Values[1] != 0.6 || f.Servers[1].CPU.Values[1] != 0.2 {
		t.Errorf("interleaved servers: %+v, %v", f.Servers, err)
	}
}

const csvHead = "server,cores,clock_ghz,ram_bytes,sample,cpu_util,ws_bytes,updates_per_sec\n"

// FuzzReadCSV feeds ReadCSV arbitrary bytes: it never panics, what it
// loads holds only finite, non-negative measurements, and WriteCSV →
// ReadCSV of a loaded fleet is a fixed point (the first write rounds to
// the file's precision; from then on the bytes repeat).
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte(csvHead + "x,4,3,1,0,0.5,100,1\nx,4,3,1,1,0.25,1e3,0x1p-2\ny,2,2.5,8,0,0,0,0\ny,2,2.5,8,1,1,1,1\n"))
	f.Add([]byte(csvHead + "srv,4,2.5,1000,0,NaN,-5,+Inf\n"))
	f.Add([]byte(csvHead + "\"a,\r\nb\",4,3,1,0,1e300,1e-300,-0\n"))
	f.Add([]byte("a,b,c\n"))
	var buf bytes.Buffer
	internal := Generate(Internal)
	if err := internal.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes()[:4096])
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := ReadCSV(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		for _, s := range fl.Servers {
			for _, ser := range [][]float64{{s.ClockGHz}, s.CPU.Values, s.WSBytes.Values, s.UpdateRate.Values} {
				for _, v := range ser {
					if !(v >= 0 && v <= math.MaxFloat64) {
						t.Fatalf("server %q loaded the measurement %v", s.Name, v)
					}
				}
			}
		}
		var first, second bytes.Buffer
		if err := fl.WriteCSV(&first); err != nil {
			t.Fatalf("WriteCSV of a loaded fleet: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV's output: %v\n%s", err, first.Bytes())
		}
		if len(again.Servers) != len(fl.Servers) {
			t.Fatalf("round trip: %d servers, want %d", len(again.Servers), len(fl.Servers))
		}
		if err := again.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteCSV → ReadCSV → WriteCSV changed the file:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
