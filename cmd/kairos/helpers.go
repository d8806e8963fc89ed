package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"kairos"
	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/model"
)

// pickFleet resolves a dataset name to its generated trace fleet.
func pickFleet(name string) (fleet.Fleet, error) {
	switch strings.ToLower(name) {
	case "internal":
		return fleet.Generate(fleet.Internal), nil
	case "wikia":
		return fleet.Generate(fleet.Wikia), nil
	case "wikipedia":
		return fleet.Generate(fleet.Wikipedia), nil
	case "secondlife":
		return fleet.Generate(fleet.SecondLife), nil
	case "all":
		return fleet.All(), nil
	default:
		return fleet.Fleet{}, fmt.Errorf("unknown dataset %q", name)
	}
}

// loadProfile reads a disk profile written by `kairos profile-disk`
// (empty path = no disk constraint).
func loadProfile(path string) (*model.DiskProfile, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	dp, err := model.LoadProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return dp, nil
}

// loadIncumbent reads a plan saved with -save-plan.
func loadIncumbent(path string) (*kairos.Incumbent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	inc, err := core.LoadIncumbent(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return inc, nil
}

// saveIncumbent writes an incumbent plan for later -resolve runs.
func saveIncumbent(path string, inc *kairos.Incumbent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(inc.Save(f), f.Close())
}

// targetMachines builds n copies of the standard 12-core/96GB target.
func targetMachines(n int, headroom float64) []core.Machine {
	out := make([]core.Machine, n)
	for i := range out {
		out[i] = fleet.TargetMachine(fmt.Sprintf("target-%02d", i), fleet.TargetDiskWriteBps, kairos.Frac(headroom))
	}
	return out
}

// specFlags are the fleet-description knobs shared by consolidate and
// watch: disk profile, RAM scaling and per-machine headroom.
type specFlags struct {
	profile  *string
	ramScale *float64
	headroom *float64
}

// addSpecFlags registers the shared fleet-spec flags on fs.
func addSpecFlags(fs *flag.FlagSet) *specFlags {
	return &specFlags{
		profile:  fs.String("profile", "", "disk profile JSON from profile-disk (omit to skip the disk constraint)"),
		ramScale: addRAMScaleFlag(fs),
		headroom: fs.Float64("headroom", float64(fleet.TargetHeadroom), "per-machine safety margin"),
	}
}

// addRAMScaleFlag registers -ram-scale, the factor fleet.Workloads applies
// to working sets that could not be gauged.
func addRAMScaleFlag(fs *flag.FlagSet) *float64 {
	return fs.Float64("ram-scale", 0.7, "RAM scaling for ungauged statistics")
}

// diskProfile loads the -profile flag's model.
func (sp *specFlags) diskProfile() (*model.DiskProfile, error) {
	return loadProfile(*sp.profile)
}
