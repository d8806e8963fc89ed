package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kairos"
	"kairos/internal/fleet"
)

// cmdWatch runs the event-driven re-consolidation loop over a directory of
// trace snapshots (CSV fleets as written by tracegen, lexicographic order):
// the first snapshot is the baseline the incumbent plan is solved against
// (or, with -resolve, the fleet an existing saved plan assumed), and every
// later snapshot is one observation window fed through the kairos.Fleet
// session. A re-solve runs only when drift crosses the threshold; each one
// prints a ReconsolidationEvent line.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	dir := fs.String("snapshots", "", "directory of CSV trace snapshots, one observation window per file (required)")
	spec := addSpecFlags(fs)
	threshold := fs.Float64("drift-threshold", 0.04, "relative drift (utilization delta or forecast CV(RMSE)) that triggers a re-solve")
	rearm := fs.Float64("rearm", 0, "hysteresis re-arm level (0 = half the threshold)")
	cooldown := fs.Int("cooldown", 1, "observation windows suppressed after a trigger")
	history := fs.Int("history", 2, "windows averaged into the rolling forecast the re-solve consumes")
	minWorkloads := fs.Int("min-workloads", 1, "distinct drifted workloads required to trigger")
	migWeight := fs.Float64("mig-weight", 0.05, "migration cost per average-working-set unit moved off its incumbent machine")
	maxMig := fs.Int("max-migrations", 0, "cap on units migrated per re-solve (0 = unlimited)")
	resolvePath := fs.String("resolve", "", "start from a plan saved with consolidate -save-plan instead of solving the first snapshot cold")
	savePlan := fs.String("save-plan", "", "write the final incumbent plan to this JSON file")
	verbose := fs.Bool("v", false, "print every window, not just triggers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("watch: -snapshots directory is required")
	}
	entries, err := os.ReadDir(*dir)
	if err != nil {
		return err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			files = append(files, filepath.Join(*dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) < 2 {
		return fmt.Errorf("watch: need a baseline plus at least one observation snapshot, found %d CSV files in %s", len(files), *dir)
	}
	dp, err := spec.diskProfile()
	if err != nil {
		return err
	}
	readSnapshot := func(path string) ([]kairos.Workload, int, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		fl, err := fleet.ReadCSV(f, path)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, err
		}
		return fl.Workloads(*spec.ramScale), len(fl.Servers), nil
	}

	baseline, nServers, err := readSnapshot(files[0])
	if err != nil {
		return err
	}
	opt := kairos.DefaultOptions()
	opt.SkipDirect = true // fleet-scale streams use the local-search path
	ropt := opt
	ropt.MigrationWeight = *migWeight
	ropt.MaxMigrations = *maxMig

	opts := []kairos.FleetOption{
		kairos.WithSolveOptions(opt),
		kairos.WithResolveOptions(ropt),
		kairos.WithDrift(kairos.DriftConfig{
			Threshold:    *threshold,
			Rearm:        *rearm,
			Cooldown:     *cooldown,
			History:      *history,
			MinWorkloads: *minWorkloads,
		}),
	}
	var seeded bool
	if *resolvePath != "" {
		inc, rerr := loadIncumbent(*resolvePath)
		if rerr != nil {
			return rerr
		}
		opts = append(opts, kairos.WithIncumbent(inc))
		seeded = true
		fmt.Printf("baseline %s: incumbent plan %s (K=%d)\n", files[0], *resolvePath, inc.K)
	}
	session, err := kairos.NewFleet(kairos.FleetSpec{
		Name:      filepath.Base(*dir),
		Workloads: baseline,
		Machines:  targetMachines(nServers, *spec.headroom),
		Disk:      dp,
	}, opts...)
	if err != nil {
		return err
	}
	if !seeded {
		plan, err := session.Consolidate(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("baseline %s: %d workloads -> %d machines (feasible=%v)\n",
			files[0], len(baseline), plan.K, plan.Feasible)
	}

	events := 0
	for _, path := range files[1:] {
		window, _, err := readSnapshot(path)
		if err != nil {
			return fmt.Errorf("watch: snapshot %s: %w", path, err)
		}
		ev, err := session.Observe(context.Background(), window)
		if err != nil {
			return fmt.Errorf("watch: snapshot %s: %w", path, err)
		}
		switch {
		case ev != nil:
			events++
			fmt.Printf("%s: %v\n", path, ev)
		case *verbose:
			fmt.Printf("%s: window %d, plan holds\n", path, session.Window()-1)
		}
	}
	final := session.Incumbent()
	fmt.Printf("watched %d windows: %d re-consolidations (final K=%d)\n",
		len(files)-1, events, final.K)
	if *savePlan != "" {
		if err := saveIncumbent(*savePlan, final); err != nil {
			return err
		}
		fmt.Printf("wrote final plan to %s\n", *savePlan)
	}
	return nil
}
