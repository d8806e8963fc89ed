package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"kairos"
	"kairos/internal/model"
)

// cmdProfileDisk builds the empirical disk model of the target hardware
// (paper Figure 4) and writes it as JSON for consolidate/watch/serve.
func cmdProfileDisk(args []string) error {
	fs := flag.NewFlagSet("profile-disk", flag.ExitOnError)
	quick := fs.Bool("quick", true, "use the reduced sweep")
	out := fs.String("o", "disk-profile.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pr := model.DefaultProfiler()
	if *quick {
		pr = kairos.QuickProfiler()
	}
	fmt.Printf("profiling %q (%d x %d sweep)...\n", pr.ConfigName, len(pr.WSPointsMB), len(pr.RatePoints))
	dp, err := pr.Run()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	// An unchecked Close on a written file can silently drop the profile:
	// the kernel reports deferred write errors there.
	if err := errors.Join(dp.Save(f), f.Close()); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points, saturation envelope=%v)\n", *out, len(dp.Points), dp.HasEnvelope)
	return nil
}
