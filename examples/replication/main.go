// Command replication demonstrates the placement-constraint features of the
// consolidation engine: replicas with anti-affinity (paper Section 5),
// measured per-replica load scaling, machine pinning, latency SLAs (the
// future extension Section 1 proposes), and partitioned solving for very
// large inventories (Section 7.5).
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

func wl(name string, cpu, ramGB float64) kairos.Workload {
	start := time.Unix(0, 0).UTC()
	n := 288
	return kairos.Workload{
		Name:       name,
		CPU:        series.Constant(start, 5*time.Minute, n, cpu),
		RAMBytes:   series.Constant(start, 5*time.Minute, n, ramGB*1e9),
		WSBytes:    series.Constant(start, 5*time.Minute, n, ramGB*1e9),
		UpdateRate: series.Constant(start, 5*time.Minute, n, 100),
		PinTo:      -1,
	}
}

func targets(n int) []kairos.Machine {
	out := make([]kairos.Machine, n)
	for i := range out {
		out[i] = kairos.Machine{
			Name:        fmt.Sprintf("rack-%d", i),
			CPUCapacity: 1.0,
			RAMBytes:    64e9,
			Headroom:    0.05,
		}
	}
	return out
}

// consolidate opens a session over the workloads and computes its plan.
func consolidate(workloads []kairos.Workload, machines []kairos.Machine) *kairos.Plan {
	f, err := kairos.NewFleet(kairos.FleetSpec{Workloads: workloads, Machines: machines})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := f.Consolidate(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return plan
}

func main() {
	fmt.Println("== Placement constraints and extensions ==")

	// 1. A primary with two replicas: the engine never co-locates copies.
	fmt.Println("\n1. replication with anti-affinity")
	orders := wl("orders", 0.30, 4)
	orders.Replicas = 3
	// Measured replica loads: read-only standbys carry ~40% of the primary.
	orders.ReplicaLoadScale = []float64{1.0, 0.4, 0.4}
	sessions := wl("sessions", 0.25, 2)
	fmt.Print(consolidate([]kairos.Workload{orders, sessions}, targets(6)))

	// 2. A latency-sensitive workload: a 1.5x slowdown SLA caps its host's
	// utilization at 33%, forcing it away from busy machines.
	fmt.Println("2. latency SLA")
	checkout := wl("checkout", 0.15, 2)
	checkout.SLA = &kairos.LatencySLA{MaxSlowdown: 1.5}
	batch := wl("batch", 0.55, 8)
	fmt.Print(consolidate([]kairos.Workload{checkout, batch}, targets(4)))

	// 3. Pinning: compliance requires the audit database on rack-2.
	fmt.Println("3. pinning")
	audit := wl("audit", 0.1, 1)
	audit.PinTo = 2
	fmt.Print(consolidate([]kairos.Workload{audit, wl("misc", 0.1, 1)}, targets(4)))

	// 4. Partitioned solving: 120 small tenants in groups of 20 — each
	// group solved independently, total work linear in the tenant count.
	fmt.Println("4. partitioned solving (120 tenants, groups of 20)")
	var fleet []kairos.Workload
	for i := 0; i < 120; i++ {
		cpu := 0.04 + 0.03*math.Sin(float64(i))
		if cpu < 0.01 {
			cpu = 0.01
		}
		fleet = append(fleet, wl(fmt.Sprintf("tenant-%03d", i), cpu, 0.8))
	}
	start := time.Now()
	ps, err := kairos.ConsolidatePartitioned(context.Background(), fleet, targets(120), nil,
		kairos.Grouping{GroupSize: 20, Options: kairos.DefaultOptions()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  120 tenants -> %d machines (%.1f:1) across %d groups, feasible=%v, in %v\n",
		ps.K, ps.ConsolidationRatio(120), len(ps.Groups), ps.Feasible,
		time.Since(start).Round(time.Millisecond))
}
