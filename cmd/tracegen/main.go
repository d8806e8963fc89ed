// Command tracegen emits the synthetic production fleet traces Kairos'
// experiments consolidate (paper Section 7.1), either as CSV (one row per
// sample) or as rrdtool-style round-robin archives — the format the paper's
// real statistics arrived in (Cacti/Ganglia/Munin).
//
// Usage:
//
//	tracegen -dataset wikipedia -format csv -o traces/
//	tracegen -dataset all -format rrd -o traces/ -weeks 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kairos/internal/fleet"
	"kairos/internal/rrd"
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

func writeRRD(dir string, f fleet.Fleet) error {
	for _, s := range f.Servers {
		db, err := rrd.New(s.CPU.Start, s.CPU.Step,
			rrd.ArchiveSpec{CF: rrd.Average, Steps: 1, Rows: s.CPU.Len()},
			rrd.ArchiveSpec{CF: rrd.Average, Steps: 12, Rows: s.CPU.Len() / 12},
			rrd.ArchiveSpec{CF: rrd.MaxCF, Steps: 12, Rows: s.CPU.Len() / 12},
		)
		if err != nil {
			return err
		}
		db.UpdateAll(s.CPU.Values)
		path := filepath.Join(dir, s.Name+".rrd")
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		_, werr := db.WriteTo(out)
		if err := errors.Join(werr, out.Close()); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d rrd archives for %s\n", len(f.Servers), f.Name)
	return nil
}

func main() {
	var (
		dataset = flag.String("dataset", "all", "internal|wikia|wikipedia|secondlife|all")
		format  = flag.String("format", "csv", "csv|rrd")
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
		var werr error
		switch strings.ToLower(*format) {
		case "csv":
			werr = writeCSV(*outDir, f)
		case "rrd":
			werr = writeRRD(*outDir, f)
		default:
			werr = fmt.Errorf("unknown format %q (csv|rrd)", *format)
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", werr)
			os.Exit(1)
		}
	}
}
