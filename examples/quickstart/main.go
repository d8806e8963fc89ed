// Command quickstart shows the minimal Kairos workflow: profile the target
// hardware, describe a handful of database workloads, and compute a
// consolidation plan.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"kairos"
	"kairos/internal/series"
)

// workload builds a resource profile with a diurnal CPU cycle.
func workload(name string, meanCPU, ramGB, updates float64, peakHour int) kairos.Workload {
	start := time.Unix(0, 0).UTC()
	step := 5 * time.Minute
	n := 288 // 24 hours
	cpu := series.FromFunc(start, step, n, func(_ time.Time, i int) float64 {
		hour := float64(i) / 12
		phase := (hour - float64(peakHour)) / 24 * 2 * math.Pi
		v := meanCPU * (1 + 0.6*math.Cos(phase))
		if v < 0.005 {
			v = 0.005
		}
		return v
	})
	return kairos.Workload{
		Name:       name,
		CPU:        cpu,
		RAMBytes:   series.Constant(start, step, n, ramGB*1e9),
		WSBytes:    series.Constant(start, step, n, ramGB*1e9),
		UpdateRate: series.Constant(start, step, n, updates),
		PinTo:      -1,
	}
}

func main() {
	fmt.Println("== Kairos quickstart ==")
	fmt.Println("1. profiling target hardware (quick sweep)...")
	profile, err := kairos.ProfileHardware(kairos.QuickProfiler())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   disk profile %q: %d sweep points, saturation envelope=%v\n",
		profile.ConfigName, len(profile.Points), profile.HasEnvelope)

	fmt.Println("2. describing workloads (normally produced by the monitor)...")
	workloads := []kairos.Workload{
		workload("orders-db", 0.12, 2.0, 400, 14),
		workload("users-db", 0.08, 1.5, 150, 15),
		workload("wiki-db", 0.15, 3.0, 250, 21),
		workload("analytics-db", 0.10, 4.0, 600, 3),
		workload("sessions-db", 0.06, 1.0, 300, 20),
		workload("inventory-db", 0.09, 2.5, 200, 11),
	}

	machines := make([]kairos.Machine, len(workloads))
	for i := range machines {
		machines[i] = kairos.Machine{
			Name:         fmt.Sprintf("target-%d", i),
			CPUCapacity:  1.0,
			RAMBytes:     32e9,
			DiskWriteBps: 50e6,
			Headroom:     0.05,
		}
	}

	fmt.Println("3. solving the consolidation program...")
	fleet, err := kairos.NewFleet(kairos.FleetSpec{Workloads: workloads, Machines: machines, Disk: profile})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := fleet.Consolidate(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan)
	fmt.Printf("consolidation ratio: %.1f:1\n", plan.ConsolidationRatio(len(workloads)))
}
