// Package unit names the physical quantities Kairos carries in float64s,
// one defined type each. The disk model alone (paper §4.1, Figure 4) maps a
// working set in MB and an update rate in rows/s to disk writes in MB/s,
// against machines measured in bytes and bytes/s; a working set passed in
// Bytes where MB is meant silently moves K. As defined types, two
// quantities of different units cannot be added, compared, assigned or
// passed for one another: the mix does not compile. A conversion is
// written out where it happens — unit.MB(ws / 1e6) — which is where a
// reader wants to see it. Untyped constants still assign to any of them.
package unit

// MB is a size in megabytes (10^6 bytes).
type MB float64

// Bytes is a size in bytes.
type Bytes float64

// MBps is a throughput in megabytes per second.
type MBps float64

// Bps is a throughput in bytes per second.
type Bps float64

// RowsPerSec is a row-update rate.
type RowsPerSec float64

// Ms is a duration in milliseconds.
type Ms float64

// Frac is a dimensionless fraction, usually in [0, 1].
type Frac float64

// TargetCPU is CPU capacity in target-machine units: 1 is one standard
// target machine (the paper normalizes every measurement to it).
type TargetCPU float64
