// Command datacenter reproduces the paper's headline experiment (Section
// 7.3, Figure 7) at full scale: consolidate the four real-world fleets —
// Internal, Wikia, Wikipedia, Second Life, and their union ALL — onto
// 12-core / 96 GB target machines, comparing Kairos against the greedy
// single-resource baseline and the fractional/idealized lower bound.
package main

import (
	"context"
	"fmt"
	"log"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/greedy"
	"kairos/internal/model"
)

const (
	diskBudgetBps = 50e6
	headroom      = 0.05
	ramScale      = 0.7 // the paper's scaling for ungauged historical stats
)

func main() {
	fmt.Println("== Data-center consolidation (Figure 7) ==")
	fmt.Println("building target hardware disk profile...")
	pr := model.DefaultProfiler()
	pr.WSPointsMB = []float64{500, 1500, 3000}
	pr.RatePoints = []float64{1000, 4000, 10000, 20000}
	pr.Settle, pr.Measure = 30e9, 30e9 // 30s each
	dp, err := pr.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s %8s %8s %8s %8s %8s %10s\n",
		"dataset", "servers", "greedy", "kairos", "ideal", "ratio", "feasible")

	run := func(name string, f fleet.Fleet) {
		wls := f.Workloads(ramScale)
		machines := make([]core.Machine, len(f.Servers))
		for i := range machines {
			machines[i] = fleet.TargetMachine(fmt.Sprintf("t%d", i), diskBudgetBps, headroom)
		}
		p := &core.Problem{Workloads: wls, Machines: machines, Disk: dp}

		sol, err := core.Solve(context.Background(), p, core.DefaultSolveOptions())
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		ev, err := core.NewEvaluator(p)
		if err != nil {
			log.Fatal(err)
		}
		ideal := ev.FractionalLowerBound()

		// Greedy baseline: single-resource first-fit with full validation.
		greedyK := "—"
		loads := make([]float64, len(wls))
		for i, w := range wls {
			loads[i] = w.CPU.Max()
		}
		if bins, ok, err := greedy.Pack(loads, ev.GreedyFits(), len(machines)); err == nil && ok {
			greedyK = fmt.Sprintf("%d", len(bins))
		}

		fmt.Printf("%-12s %8d %8s %8d %8d %7.1f:1 %10v\n",
			name, len(f.Servers), greedyK, sol.K, ideal,
			sol.ConsolidationRatio(len(f.Servers)), sol.Feasible)
	}

	for _, d := range fleet.Datasets() {
		run(d.String(), fleet.Generate(d))
	}
	run("ALL", fleet.All())
}
