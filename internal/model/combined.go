package model

import (
	"fmt"

	"kairos/internal/series"
)

// Estimator predicts the combined resource consumption of co-located
// workloads from their individual profiles (paper Section 4). CPU and RAM
// combine (near-)linearly; disk goes through the empirical profile.
type Estimator struct {
	// Disk is the hardware profile of the consolidation target.
	Disk *DiskProfile
	// CPUOverheadPerInstance is the CPU fraction each eliminated OS+DBMS
	// copy was burning; summing raw measurements double-counts it, so the
	// combined estimate subtracts it per additional workload.
	CPUOverheadPerInstance float64
	// RAMScaling linearly scales measured RAM values down for workloads
	// whose statistics could not be gauged (the paper uses ≈0.7 for the
	// Wikipedia and Second Life historical data, a 30% saving).
	RAMScaling float64
}

// NewEstimator builds an estimator with the paper's default corrections.
func NewEstimator(dp *DiskProfile) *Estimator {
	return &Estimator{Disk: dp, CPUOverheadPerInstance: 0.02, RAMScaling: 1.0}
}

// CombinedCPU predicts the CPU utilization series of n co-located
// workloads: the sum of the individual series minus the per-instance
// overhead for the n−1 eliminated OS+DBMS copies.
func (e *Estimator) CombinedCPU(cpus []*series.Series) (*series.Series, error) {
	if len(cpus) == 0 {
		return nil, fmt.Errorf("model: no CPU series")
	}
	sum, err := series.Sum(cpus)
	if err != nil {
		return nil, err
	}
	saving := e.CPUOverheadPerInstance * float64(len(cpus)-1)
	return sum.Shift(-saving).Clamp(0, 1), nil
}

// BaselineCPU is the naive estimate: a straight sum of OS-reported CPU.
func (e *Estimator) BaselineCPU(cpus []*series.Series) (*series.Series, error) {
	if len(cpus) == 0 {
		return nil, fmt.Errorf("model: no CPU series")
	}
	sum, err := series.Sum(cpus)
	if err != nil {
		return nil, err
	}
	return sum.Clamp(0, 1), nil
}

// CombinedRAM predicts the combined memory requirement from gauged working
// sets (or scaled historical measurements).
func (e *Estimator) CombinedRAM(rams []*series.Series) (*series.Series, error) {
	if len(rams) == 0 {
		return nil, fmt.Errorf("model: no RAM series")
	}
	sum, err := series.Sum(rams)
	if err != nil {
		return nil, err
	}
	scale := e.RAMScaling
	if scale <= 0 {
		scale = 1
	}
	return sum.Scale(scale), nil
}

// CombinedDisk predicts the disk write throughput series (bytes/sec) of
// co-located workloads by pushing the aggregate working set and update rate
// through the hardware profile at every time step.
func (e *Estimator) CombinedDisk(wsBytes, updateRates []*series.Series) (*series.Series, error) {
	if e.Disk == nil {
		return nil, fmt.Errorf("model: estimator has no disk profile")
	}
	if len(wsBytes) == 0 || len(wsBytes) != len(updateRates) {
		return nil, fmt.Errorf("model: mismatched series counts ws=%d rates=%d", len(wsBytes), len(updateRates))
	}
	wsSum, err := series.Sum(wsBytes)
	if err != nil {
		return nil, err
	}
	rateSum, err := series.Sum(updateRates)
	if err != nil {
		return nil, err
	}
	if wsSum.Len() != rateSum.Len() {
		return nil, series.ErrMismatch
	}
	out := wsSum.Clone()
	for i := range out.Values {
		out.Values[i] = e.Disk.PredictWriteMBps(wsSum.Values[i], rateSum.Values[i]) * 1e6
	}
	return out, nil
}

// BaselineDisk is the naive estimate: a straight sum of each workload's
// measured standalone disk writes. Because an idle-flushing DBMS uses spare
// bandwidth, this overstates the requirement badly at high load (up to 32×
// in the paper's Figure 6).
func (e *Estimator) BaselineDisk(writeBps []*series.Series) (*series.Series, error) {
	if len(writeBps) == 0 {
		return nil, fmt.Errorf("model: no disk series")
	}
	return series.Sum(writeBps)
}
