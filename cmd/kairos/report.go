package main

import (
	"context"
	"flag"
	"fmt"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// cmdReport prints the Figure-7 style consolidation table over every
// built-in dataset.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	ramScale := addRAMScaleFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-12s %8s %8s %8s %9s\n", "dataset", "servers", "kairos", "ideal", "ratio")
	names := []string{"internal", "wikia", "wikipedia", "secondlife", "all"}
	for _, name := range names {
		f, err := pickFleet(name)
		if err != nil {
			return err
		}
		p := &core.Problem{
			Workloads: f.Workloads(*ramScale),
			Machines:  targetMachines(len(f.Servers), float64(fleet.TargetHeadroom)),
		}
		sol, err := core.Solve(context.Background(), p, core.DefaultSolveOptions())
		if err != nil {
			return err
		}
		ev, err := core.NewEvaluator(p)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %8d %8d %8d %8.1f:1\n",
			f.Name, len(f.Servers), sol.K, ev.FractionalLowerBound(),
			sol.ConsolidationRatio(len(f.Servers)))
	}
	return nil
}
