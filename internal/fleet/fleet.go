// Package fleet generates synthetic production-server statistics
// reproducing the published characteristics of the paper's four real-world
// datasets (Section 7.1): Internal (25 servers of MIT CSAIL lab
// infrastructure), Wikia (34), Wikipedia (40, the Tampa cluster), and
// Second Life (97, including a pool of 27 machines running late-night
// snapshot jobs). The real traces are proprietary rrdtool archives; the
// generator reproduces what the consolidation results actually depend on —
// the statistical shape of the load: mean CPU utilization under 4%, diurnal
// and weekly cycles with per-dataset phases, partial correlation between
// servers of one organization, occasional bursts, and working sets far
// smaller than provisioned RAM.
//
// All randomness is seeded per dataset, so every run of every experiment
// sees bit-identical fleets.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"kairos/internal/core"
	"kairos/internal/series"
	"kairos/internal/unit"
)

// Dataset identifies one of the paper's data providers.
type Dataset int

const (
	// Internal is the 25-server MIT CSAIL lab dataset (production plus
	// test/development machines).
	Internal Dataset = iota
	// Wikia is the 35-server collaborative publishing platform (the paper
	// reports "over 34 database servers").
	Wikia
	// Wikipedia is the 40-server Tampa database cluster.
	Wikipedia
	// SecondLife is the 97-server virtual-world backend.
	SecondLife
)

// String implements fmt.Stringer.
func (d Dataset) String() string {
	switch d {
	case Internal:
		return "Internal"
	case Wikia:
		return "Wikia"
	case Wikipedia:
		return "Wikipedia"
	case SecondLife:
		return "SecondLife"
	default:
		return fmt.Sprintf("dataset(%d)", int(d))
	}
}

// Datasets lists all four sources in paper order.
func Datasets() []Dataset { return []Dataset{Internal, Wikia, Wikipedia, SecondLife} }

// Server is one production database server with its monitored statistics.
type Server struct {
	// Name identifies the server.
	Name string
	// Cores and ClockGHz describe the hardware; CPU traces are utilization
	// of this machine, normalized later.
	Cores    int
	ClockGHz float64
	// RAMBytes is the machine's physical memory (what it was provisioned
	// with, not what it needs).
	RAMBytes int64
	// CPU is utilization of this machine in [0,1] (all cores = 1), sampled
	// every 5 minutes over 24 hours.
	CPU *series.Series
	// WSBytes is the working set (after the paper's RAM scaling for
	// historical statistics that could not be gauged).
	WSBytes *series.Series
	// UpdateRate is the row-modification rate (rows/sec).
	UpdateRate *series.Series
}

// Fleet is one organization's set of database servers.
type Fleet struct {
	Name    string
	Dataset Dataset
	Servers []Server
}

// params are the per-dataset generation knobs.
type params struct {
	servers      int
	seed         int64
	meanUtil     float64 // mean CPU utilization of own machine
	utilSpread   float64 // multiplicative spread across servers
	diurnalRatio float64 // peak/trough of the daily cycle
	peakHour     float64
	correlated   float64 // share of diurnal phase common to the fleet
	noise        float64
	coresChoices []int
	meanWSGB     float64 // mean working set
	wsSpreadGB   float64
	meanUpdates  float64 // rows/sec at mean load
	// snapshot models Second Life's 27-machine late-night snapshot pool.
	snapshotServers int
	snapshotHour    float64
	snapshotFactor  float64
}

func datasetParams(d Dataset) params {
	switch d {
	case Internal:
		// Lab infrastructure: few, beefier working sets (production DBs plus
		// dev machines), weak correlation, modest cycles.
		return params{
			servers: 25, seed: 1001, meanUtil: 0.035, utilSpread: 0.8,
			diurnalRatio: 2.5, peakHour: 15, correlated: 0.5, noise: 0.25,
			coresChoices: []int{4, 8}, meanWSGB: 16, wsSpreadGB: 8,
			meanUpdates: 120,
		}
	case Wikia:
		// Many small wikis: tiny working sets, strong sharing, the paper's
		// best consolidation ratio.
		return params{
			servers: 35, seed: 1002, meanUtil: 0.03, utilSpread: 0.5,
			diurnalRatio: 3, peakHour: 20, correlated: 0.8, noise: 0.2,
			coresChoices: []int{4, 8}, meanWSGB: 4, wsSpreadGB: 2,
			meanUpdates: 80,
		}
	case Wikipedia:
		// Large, strongly diurnal, very predictable cluster.
		return params{
			servers: 40, seed: 1003, meanUtil: 0.05, utilSpread: 0.4,
			diurnalRatio: 4, peakHour: 21, correlated: 0.9, noise: 0.15,
			coresChoices: []int{8, 16}, meanWSGB: 10, wsSpreadGB: 4,
			meanUpdates: 250,
		}
	case SecondLife:
		// Big pool with scheduled late-night snapshot jobs on 27 machines.
		return params{
			servers: 97, seed: 1004, meanUtil: 0.04, utilSpread: 0.6,
			diurnalRatio: 3, peakHour: 19, correlated: 0.7, noise: 0.2,
			coresChoices: []int{8, 16}, meanWSGB: 8, wsSpreadGB: 4,
			meanUpdates:     180,
			snapshotServers: 27, snapshotHour: 3, snapshotFactor: 8,
		}
	default:
		panic(fmt.Sprintf("fleet: unknown dataset %d", int(d)))
	}
}

// SamplesPerDay is the paper's 24-hour window at 5-minute samples.
const SamplesPerDay = 288

// SampleStep is the sampling interval.
const SampleStep = 5 * time.Minute

// Generate builds the named dataset's fleet with its fixed seed.
func Generate(d Dataset) Fleet {
	return generateDays(d, 1, 0)
}

// GenerateWeeks builds weeks×7 days of traces (used by the predictability
// experiment, Figure 13).
func GenerateWeeks(d Dataset, weeks int) Fleet {
	return generateDays(d, 7*weeks, 0)
}

// generateDays builds `days` days of traces; seedOffset perturbs the seed
// (used by robustness experiments).
func generateDays(d Dataset, days int, seedOffset int64) Fleet {
	p := datasetParams(d)
	rng := rand.New(rand.NewSource(p.seed + seedOffset))
	n := SamplesPerDay * days
	start := time.Unix(0, 0).UTC()

	fleet := Fleet{Name: d.String(), Dataset: d, Servers: make([]Server, p.servers)}
	for i := 0; i < p.servers; i++ {
		cores := p.coresChoices[rng.Intn(len(p.coresChoices))]
		clock := 2.0 + rng.Float64()*1.3
		base := p.meanUtil * math.Exp(rng.NormFloat64()*p.utilSpread)
		phase := rng.NormFloat64() * 2.5 * (1 - p.correlated) // hours of phase jitter
		wsGB := math.Max(0.5, p.meanWSGB+rng.NormFloat64()*p.wsSpreadGB)
		isSnapshot := p.snapshotServers > 0 && i < p.snapshotServers
		serverSeed := rng.Int63()

		srng := rand.New(rand.NewSource(serverSeed))
		cpu := make([]float64, n)
		upd := make([]float64, n)
		ratio := p.diurnalRatio
		mean := (ratio + 1) / 2
		amp := (ratio - 1) / 2
		for t := 0; t < n; t++ {
			hours := float64(t) * SampleStep.Hours()
			hourOfDay := math.Mod(hours, 24)
			dayOfWeek := int(hours/24) % 7
			// Diurnal cycle around the dataset's peak hour.
			cyc := (mean + amp*math.Cos(2*math.Pi*(hourOfDay-p.peakHour-phase)/24)) / mean
			// Weekly cycle: weekends run ~30% lighter.
			week := 1.0
			if dayOfWeek >= 5 {
				week = 0.7
			}
			v := base * cyc * week * (1 + p.noise*srng.NormFloat64())
			// Occasional short bursts ("unexpected events").
			if srng.Float64() < 0.004 {
				v *= 3 + 2*srng.Float64()
			}
			if isSnapshot {
				// Scheduled snapshot job: a hard spike in a fixed
				// late-night window, shared by the pool.
				if dh := math.Abs(hourOfDay - p.snapshotHour); dh < 0.75 {
					v += base * p.snapshotFactor
				}
			}
			if v < 0.001 {
				v = 0.001
			}
			if v > 1 {
				v = 1
			}
			cpu[t] = v
			u := p.meanUpdates * (v / p.meanUtil) * 0.4
			if u < 1 {
				u = 1
			}
			upd[t] = u
		}
		ramProvisioned := int64(math.Max(8, wsGB*2+8)) << 30
		fleet.Servers[i] = Server{
			Name:       fmt.Sprintf("%s-%02d", d.String(), i),
			Cores:      cores,
			ClockGHz:   clock,
			RAMBytes:   ramProvisioned,
			CPU:        series.New(start, SampleStep, cpu),
			WSBytes:    series.Constant(start, SampleStep, n, wsGB*1e9),
			UpdateRate: series.New(start, SampleStep, upd),
		}
	}
	return fleet
}

// All concatenates all four fleets — the paper's 196-server "ALL" dataset
// (total server count matches the sum of the four).
func All() Fleet {
	out := Fleet{Name: "ALL", Dataset: -1}
	for _, d := range Datasets() {
		f := Generate(d)
		out.Servers = append(out.Servers, f.Servers...)
	}
	return out
}

// TotalCores sums hardware cores across the fleet (the paper compares 1419
// original cores against 252 consolidated ones).
func (f *Fleet) TotalCores() int {
	var total int
	for _, s := range f.Servers {
		total += s.Cores
	}
	return total
}

// MeanCPUUtilization returns the fleet-wide average utilization — the
// paper's headline "average CPU utilization of less than 4%".
func (f *Fleet) MeanCPUUtilization() float64 {
	var sum float64
	var n int
	for _, s := range f.Servers {
		sum += s.CPU.Mean()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// The target machine's default disk write budget and safety margin: what
// TargetMachine is given when a caller names neither.
const (
	TargetDiskWriteBps unit.Bps  = 50e6
	TargetHeadroom     unit.Frac = 0.05
)

// TargetMachine is the paper's consolidation target: a 12-core, 96 GB
// machine ("a higher-end class of machines used by two of our data
// providers", USD $6,000–$10,000).
func TargetMachine(name string, diskBudget unit.Bps, headroom unit.Frac) core.Machine {
	return core.Machine{
		Name:         name,
		CPUCapacity:  1.0,
		RAMBytes:     96e9,
		DiskWriteBps: diskBudget,
		Headroom:     headroom,
	}
}

// TargetCores is the target machine's core count used for normalization.
const TargetCores = 12

// targetClockGHz is the standard core clock used for normalization.
const targetClockGHz = 3.0

// Workloads converts the fleet's monitored statistics into consolidation
// workloads: CPU is normalized by core count and clock speed to fractions
// of the 12-core target machine (paper Section 6, "Normalization"), and RAM
// is the working set scaled by ramScale (the paper applies ≈0.7 to
// historical statistics that could not be gauged).
func (f *Fleet) Workloads(ramScale float64) []core.Workload {
	if ramScale <= 0 {
		ramScale = 1
	}
	out := make([]core.Workload, len(f.Servers))
	for i, s := range f.Servers {
		// util × cores × clock relative to the target's 12 standard cores.
		scale := float64(s.Cores) * s.ClockGHz / (TargetCores * targetClockGHz)
		out[i] = core.Workload{
			Name:       s.Name,
			CPU:        s.CPU.Scale(scale),
			RAMBytes:   s.WSBytes.Scale(ramScale),
			WSBytes:    s.WSBytes.Scale(ramScale),
			UpdateRate: s.UpdateRate.Clone(),
			PinTo:      -1,
		}
	}
	return out
}

// AggregateCPU returns the sum of normalized CPU across the fleet, in
// target-machine units (used by Figures 8 and 13).
func (f *Fleet) AggregateCPU() *series.Series {
	ws := f.Workloads(1)
	ss := make([]*series.Series, len(ws))
	for i := range ws {
		ss[i] = ws[i].CPU
	}
	sum, err := series.Sum(ss)
	if err != nil {
		// All generator series share one shape; a mismatch is a bug.
		panic(err)
	}
	return sum
}
