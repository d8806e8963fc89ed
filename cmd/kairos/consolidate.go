package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"kairos"
	"kairos/internal/core"
	"kairos/internal/fleet"
)

// cmdConsolidate computes a consolidation plan for a built-in dataset or
// a recorded trace CSV, through the kairos.Fleet session API: cold solve,
// sharded fleet solve (-shards), or warm re-solve from a saved plan
// (-resolve).
func cmdConsolidate(args []string) error {
	fs := flag.NewFlagSet("consolidate", flag.ExitOnError)
	dataset := fs.String("dataset", "internal", "internal|wikia|wikipedia|secondlife|all")
	traces := fs.String("traces", "", "consolidate recorded traces from this CSV file instead of a built-in dataset")
	spec := addSpecFlags(fs)
	verbose := fs.Bool("v", false, "print the full placement")
	stats := fs.Bool("stats", false, "print the solver's work counters: the K probes it ran and the DIRECT samples the final run resumed, climbs run and reused, sweep candidates considered and skipped, machines summed by Eval and answered from its table")
	shards := fs.Int("shards", 0, "split the fleet into this many correlation-aware shards solved separately (0 = single global solve)")
	savePlan := fs.String("save-plan", "", "write the computed plan to this JSON file for later -resolve runs")
	resolvePath := fs.String("resolve", "", "warm-start from a plan saved with -save-plan instead of solving cold (rolling re-consolidation)")
	migWeight := fs.Float64("mig-weight", 0.05, "with -resolve: migration cost per average-working-set unit moved off its incumbent machine (0 = free migrations)")
	maxMig := fs.Int("max-migrations", 0, "with -resolve: cap on units moved off their incumbent machine (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resolvePath != "" && *shards > 0 {
		return fmt.Errorf("-resolve and -shards are mutually exclusive (warm re-solves polish globally)")
	}
	var f fleet.Fleet
	var err error
	if *traces != "" {
		file, ferr := os.Open(*traces)
		if ferr != nil {
			return ferr
		}
		f, err = fleet.ReadCSV(file, *traces)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	} else {
		f, err = pickFleet(*dataset)
	}
	if err != nil {
		return err
	}
	dp, err := spec.diskProfile()
	if err != nil {
		return err
	}
	opt := kairos.DefaultOptions()
	fspec := kairos.FleetSpec{
		Name:      f.Name,
		Workloads: f.Workloads(*spec.ramScale),
		Machines:  targetMachines(len(f.Servers), *spec.headroom),
		Disk:      dp,
	}
	opts := []kairos.FleetOption{kairos.WithSolveOptions(opt)}
	switch {
	case *resolvePath != "":
		inc, rerr := loadIncumbent(*resolvePath)
		if rerr != nil {
			return rerr
		}
		ropt := opt
		ropt.MigrationWeight = *migWeight
		ropt.MaxMigrations = *maxMig
		opts = append(opts, kairos.WithIncumbent(inc), kairos.WithResolveOptions(ropt))
	case *shards > 0:
		opts = append(opts, kairos.WithShards(*shards))
	}
	session, err := kairos.NewFleet(fspec, opts...)
	if err != nil {
		return err
	}
	plan, err := session.Consolidate(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d servers -> %d machines (%.1f:1), feasible=%v, solved in %v\n",
		f.Name, len(f.Servers), plan.K, plan.ConsolidationRatio(len(f.Servers)),
		plan.Feasible, plan.Elapsed.Round(time.Millisecond))
	if *resolvePath != "" {
		fmt.Printf("warm re-solve: %d/%d units migrated (migration cost %.3f, %d fevals)\n",
			plan.Migrated, len(plan.Assign), plan.MigrationCost, plan.Fevals)
	}
	if *stats {
		printSolveStats(plan.Fevals, plan.Stats)
	}
	if *savePlan != "" {
		if err := saveIncumbent(*savePlan, plan.Incumbent()); err != nil {
			return err
		}
		fmt.Printf("wrote plan to %s (re-solve later with -resolve %s)\n", *savePlan, *savePlan)
	}
	if *verbose {
		fmt.Print(plan)
	}
	return nil
}

// printSolveStats prints Solution.Stats: three lines of counters and times,
// then the K probes in the order the search consumed them, or a warm
// re-solve's candidate climbs in seed order.
func printSolveStats(fevals int, st core.SolveStats) {
	fmt.Printf("work: %d fevals; climbs %d run, %d reused; %d sweeps; candidates %d considered, %d skipped unchanged (%.1f%%), %d exact pricings; greedy packing %v\n",
		fevals, st.Climbs, st.ClimbsReused, st.Sweeps, st.Considered, st.Skipped, 100*st.SkippedFrac(), st.Priced, st.GreedyPack.Round(time.Microsecond))
	resumed := 0
	for _, pr := range st.Probes {
		resumed += pr.Resumed
	}
	fmt.Printf("      %d machines summed by Eval, %d answered from its table; final run resumed %d DIRECT samples\n",
		st.EvalPriced, st.EvalReused, resumed)
	fmt.Printf("      move sweeps %v, swap sweeps %v (summed over climbs)\n",
		st.MoveSweepTime.Round(time.Microsecond), st.SwapSweepTime.Round(time.Microsecond))
	for _, c := range st.Candidates {
		verdict, chosen := "infeasible", ""
		if c.Feasible {
			verdict = "feasible"
		}
		if c.Chosen {
			chosen = "  (chosen)"
		}
		fmt.Printf("  climb %-11s %-10s %9d fevals %10v  objective+migration %.6f%s\n",
			c.Seed, verdict, c.Fevals, c.Elapsed.Round(time.Microsecond), c.Combined, chosen)
	}
	for _, pr := range st.Probes {
		verdict, reused := "infeasible", ""
		if pr.Feasible {
			verdict = "feasible"
		}
		if pr.Reused {
			reused = "  (cold climbs reused)"
		}
		fmt.Printf("  probe K=%-4d %-10s %9d fevals %10v%s\n", pr.K, verdict, pr.Fevals, pr.Elapsed.Round(time.Microsecond), reused)
	}
}
