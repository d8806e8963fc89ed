// Command tracegen emits the synthetic production fleet traces Kairos'
// experiments consolidate (paper Section 7.1) as CSV: one <dataset>.csv file
// per dataset, one row per sample — the form `kairos consolidate -traces` and
// `kairos watch -snapshots` read.
//
// Usage:
//
//	tracegen -dataset wikipedia -o traces/
//	tracegen -dataset all -o traces/ -weeks 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kairos/internal/fleet"
)

func pickDatasets(name string) ([]fleet.Dataset, error) {
	switch strings.ToLower(name) {
	case "internal":
		return []fleet.Dataset{fleet.Internal}, nil
	case "wikia":
		return []fleet.Dataset{fleet.Wikia}, nil
	case "wikipedia":
		return []fleet.Dataset{fleet.Wikipedia}, nil
	case "secondlife":
		return []fleet.Dataset{fleet.SecondLife}, nil
	case "all":
		return fleet.Datasets(), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (internal|wikia|wikipedia|secondlife|all)", name)
	}
}

func writeCSV(dir string, f fleet.Fleet) error {
	path := filepath.Join(dir, strings.ToLower(f.Name)+".csv")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	// Close reports deferred write errors on a written file; dropping it
	// could silently truncate the trace.
	if err := errors.Join(f.WriteCSV(out), out.Close()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %s (%d servers x %d samples)\n",
		path, len(f.Servers), f.Servers[0].CPU.Len())
	return nil
}

func main() {
	var (
		dataset = flag.String("dataset", "all", "internal|wikia|wikipedia|secondlife|all")
		outDir  = flag.String("o", ".", "output directory")
		weeks   = flag.Int("weeks", 0, "generate N weeks of data instead of 24 hours")
	)
	flag.Parse()

	dss, err := pickDatasets(*dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	for _, d := range dss {
		var f fleet.Fleet
		if *weeks > 0 {
			f = fleet.GenerateWeeks(d, *weeks)
		} else {
			f = fleet.Generate(d)
		}
		if err := writeCSV(*outDir, f); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	}
}
