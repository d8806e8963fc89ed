// Package disk simulates a rotational disk subsystem at tick granularity.
//
// The Kairos paper (Section 4.1) builds an empirical model of disk behaviour
// because "complex interactions between the DBMS, OS, and disk controller
// make it hard to predict how sequential or random the combination of a set
// of workloads will be". This package is the hardware those interactions run
// against: a seek + rotation + transfer service-time model with three request
// classes that capture how a DBMS actually uses a disk:
//
//   - synchronous random page reads (buffer-pool misses) — highest priority;
//   - sequential log writes with per-flush overhead, where interleaving
//     flushes from different log streams costs extra seeks (the mechanism
//     behind the paper's one-DBMS-instance-beats-many argument);
//   - background write-back of dirty pages submitted as sorted batches, so
//     the elevator effect makes per-page cost fall as batches grow.
//
// Time advances in fixed ticks. Each tick the disk owns Tick() seconds of
// service time and spends it on queued requests in priority order; work that
// does not fit stays queued, which is how saturation and queueing delay
// emerge rather than being asserted.
package disk

import (
	"fmt"
	"math"
	"time"

	"kairos/internal/unit"
)

// Params describes the physical characteristics of a simulated disk.
type Params struct {
	// SeqWriteMBps is the sustained sequential write bandwidth.
	SeqWriteMBps unit.MBps
	// SeqReadMBps is the sustained sequential read bandwidth.
	SeqReadMBps unit.MBps
	// FullSeekMs is the full-stroke seek time.
	FullSeekMs unit.Ms
	// TrackToTrackMs is the minimum (adjacent-track) seek time.
	TrackToTrackMs unit.Ms
	// RPM is the spindle speed; rotational latency is derived from it.
	RPM float64
	// CacheWriteFactor models the disk controller's write cache: effective
	// rotational latency for writes is multiplied by this factor in (0,1].
	// Real controllers acknowledge writes from cache and schedule media
	// writes opportunistically, roughly halving effective overhead.
	CacheWriteFactor float64
	// CapacityBytes is the disk capacity, used to convert data extents to
	// seek distances (fraction of full stroke).
	CapacityBytes int64
}

// Server7200SATA returns parameters matching the paper's test machines:
// a single 7200 RPM SATA drive.
func Server7200SATA() Params {
	return Params{
		SeqWriteMBps:     90,
		SeqReadMBps:      100,
		FullSeekMs:       16,
		TrackToTrackMs:   0.8,
		RPM:              7200,
		CacheWriteFactor: 0.5,
		CapacityBytes:    500 << 30, // 500 GB
	}
}

// rotationalLatency returns the average rotational latency (half a turn).
func (p Params) rotationalLatency() time.Duration {
	if p.RPM <= 0 {
		return 0
	}
	secPerRev := 60.0 / p.RPM
	return time.Duration(secPerRev / 2 * float64(time.Second))
}

// seekTime returns the time to seek across distance d expressed as a
// fraction of the full stroke, using the classic a + b·sqrt(d) model.
func (p Params) seekTime(d float64) time.Duration {
	if d <= 0 {
		return 0
	}
	if d > 1 {
		d = 1
	}
	ms := p.TrackToTrackMs + (p.FullSeekMs-p.TrackToTrackMs)*unit.Ms(math.Sqrt(d))
	return time.Duration(float64(ms) * float64(time.Millisecond))
}

// transferTime returns the time to move n bytes at the given rate.
func transferTime(n int64, mbps unit.MBps) time.Duration {
	if mbps <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / (float64(mbps) * 1e6) * float64(time.Second))
}

// Stats accumulates disk activity. All byte counters are cumulative since
// creation or the last call to TakeStats.
type Stats struct {
	ReadOps        int64
	ReadBytes      int64
	LogBytes       int64
	LogFlushes     int64
	PageWriteOps   int64
	PageWriteBytes int64
	// BusyTime is the total service time consumed.
	BusyTime time.Duration
	// ElapsedTime is the total wall-clock simulated time.
	ElapsedTime time.Duration
	// QueuedReads is the instantaneous number of reads still waiting.
	QueuedReads int
}

// WriteBytes returns all bytes written (log plus page write-back).
func (s Stats) WriteBytes() int64 { return s.LogBytes + s.PageWriteBytes }

// TotalBytes returns all bytes moved in either direction.
func (s Stats) TotalBytes() int64 { return s.WriteBytes() + s.ReadBytes }

// Utilization returns the fraction of elapsed time the disk was busy.
func (s Stats) Utilization() float64 {
	if s.ElapsedTime <= 0 {
		return 0
	}
	u := float64(s.BusyTime) / float64(s.ElapsedTime)
	if u > 1 {
		u = 1
	}
	return u
}

// WriteMBps returns the average write throughput in MB/s over the window.
func (s Stats) WriteMBps() float64 {
	if s.ElapsedTime <= 0 {
		return 0
	}
	return float64(s.WriteBytes()) / 1e6 / s.ElapsedTime.Seconds()
}

// ReadPagesPerSec returns the average physical read rate in ops/s.
func (s Stats) ReadPagesPerSec() float64 {
	if s.ElapsedTime <= 0 {
		return 0
	}
	return float64(s.ReadOps) / s.ElapsedTime.Seconds()
}

// readReq is one pending synchronous page read.
type readReq struct {
	bytes int64
	span  float64 // seek distance as a fraction of full stroke
}

// Disk is a simulated rotational disk. It is not safe for concurrent use;
// the DBMS simulator drives it from a single goroutine.
type Disk struct {
	p Params

	pendingReads []readReq

	// Log state: sequential position per stream; switching streams costs a
	// seek, which is the penalty multiple DBMS instances pay.
	lastLogStream int
	pendingLog    []logReq

	stats     Stats
	lastStats Stats

	// lastTickSync is the service time the most recent Tick spent on
	// synchronous work (debt repayment, log writes, reads) — the part of
	// disk activity user transactions actually wait behind.
	lastTickSync time.Duration

	// spare tracks service time left over in the current tick after the
	// synchronous classes were served; write-back consumes it.
	spare time.Duration
	// debt is service time borrowed from future ticks by forced write-back
	// (a flush storm); it is repaid before any new work is served. Debt is
	// bounded (maxDebt): beyond it, forced writes are refused so queued
	// synchronous work is never starved for more than a couple of ticks —
	// real disks interleave reads between background writes.
	debt time.Duration
}

// maxDebt bounds how far forced write-back may overrun the current tick.
const maxDebt = 50 * time.Millisecond

type logReq struct {
	stream  int
	bytes   int64
	flushes int64
}

// New creates a disk with the given physical parameters.
func New(p Params) (*Disk, error) {
	if p.SeqWriteMBps <= 0 || p.SeqReadMBps <= 0 {
		return nil, fmt.Errorf("disk: sequential bandwidth must be positive, got write=%v read=%v",
			p.SeqWriteMBps, p.SeqReadMBps)
	}
	if p.CapacityBytes <= 0 {
		return nil, fmt.Errorf("disk: capacity must be positive, got %d", p.CapacityBytes)
	}
	if p.CacheWriteFactor <= 0 || p.CacheWriteFactor > 1 {
		return nil, fmt.Errorf("disk: cache write factor must be in (0,1], got %v", p.CacheWriteFactor)
	}
	return &Disk{p: p}, nil
}

// Params returns the physical parameters of the disk.
func (d *Disk) Params() Params { return d.p }

// SpanFraction converts a data extent in bytes to a fraction of the disk's
// full seek stroke, for use as the span argument of read/write submissions.
func (d *Disk) SpanFraction(extentBytes int64) float64 {
	f := float64(extentBytes) / float64(d.p.CapacityBytes)
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// SubmitRead queues n random page reads of pageBytes each, scattered over an
// extent spanning the given fraction of the disk.
func (d *Disk) SubmitRead(n int, pageBytes int, span float64) {
	for i := 0; i < n; i++ {
		d.pendingReads = append(d.pendingReads, readReq{bytes: int64(pageBytes), span: span})
	}
}

// SubmitLog queues a sequential log write of the given size for a stream.
// flushes is the number of physical flush (sync) operations in the batch;
// each flush pays rotational overhead, and a stream switch pays a seek.
func (d *Disk) SubmitLog(stream int, bytes int64, flushes int64) {
	if bytes <= 0 && flushes <= 0 {
		return
	}
	d.pendingLog = append(d.pendingLog, logReq{stream: stream, bytes: bytes, flushes: flushes})
}

// randomReadTime is the service time for one random page read.
func (d *Disk) randomReadTime(bytes int64, span float64) time.Duration {
	// Average seek within the extent is roughly a third of its span.
	return d.p.seekTime(span/3) + d.p.rotationalLatency() + transferTime(bytes, d.p.SeqReadMBps)
}

// logWriteTime is the service time for a log batch on the current stream.
func (d *Disk) logWriteTime(r logReq) time.Duration {
	t := transferTime(r.bytes, d.p.SeqWriteMBps)
	// Each physical flush pays (cache-discounted) rotational overhead.
	perFlush := time.Duration(float64(d.p.rotationalLatency()) * d.p.CacheWriteFactor)
	t += time.Duration(r.flushes) * perFlush
	if r.stream != d.lastLogStream {
		// Interleaved log streams break sequentiality: pay a seek to move
		// the head to the other log extent.
		t += d.p.seekTime(0.05)
	}
	return t
}

// writeBackTime is the per-page service time for a sorted batch of n dirty
// pages spread over an extent spanning `span` of the disk. Sorting means the
// head sweeps the extent once, so the seek distance per page is span/n —
// the elevator effect — and command queuing plus the controller write cache
// pipeline the remaining positioning cost, so overhead falls roughly
// logarithmically with batch size.
func (d *Disk) writeBackTime(pageBytes int, n int, span float64) time.Duration {
	if n <= 0 {
		return 0
	}
	overhead := d.p.seekTime(span/float64(n)) +
		time.Duration(float64(d.p.rotationalLatency())*d.p.CacheWriteFactor)
	per := time.Duration(float64(overhead)*batchDiscount(n)) +
		transferTime(int64(pageBytes), d.p.SeqWriteMBps)
	return per
}

// batchDiscount models NCQ/write-cache pipelining of sorted write batches.
func batchDiscount(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / (1 + math.Log2(float64(n)))
}

// Tick advances simulated time by dt: serves queued log writes first (they
// are small and a waiting commit blocks whole transactions, so no real DBMS
// lets reads starve its fsyncs), then random reads, and leaves any remaining
// service time as spare capacity that WriteBack can consume in the same
// tick. It returns the number of reads completed this tick.
func (d *Disk) Tick(dt time.Duration) (readsDone int) {
	d.stats.ElapsedTime += dt
	d.lastTickSync = 0
	// Repay borrowed time first: a disk that over-committed to a forced
	// flush serves nothing until the debt clears.
	if d.debt >= dt {
		d.debt -= dt
		d.spare = 0
		d.lastTickSync = dt
		d.stats.QueuedReads = len(d.pendingReads)
		return 0
	}
	budget := dt - d.debt
	d.lastTickSync = d.debt
	d.debt = 0

	// 1. Log writes (commit path).
	for len(d.pendingLog) > 0 {
		r := d.pendingLog[0]
		t := d.logWriteTime(r)
		if t > budget {
			break
		}
		budget -= t
		d.stats.BusyTime += t
		d.lastTickSync += t
		d.stats.LogBytes += r.bytes
		d.stats.LogFlushes += r.flushes
		d.lastLogStream = r.stream
		d.pendingLog = d.pendingLog[1:]
	}
	if len(d.pendingLog) == 0 {
		d.pendingLog = nil
	}

	// 2. Synchronous reads.
	for len(d.pendingReads) > 0 {
		r := d.pendingReads[0]
		t := d.randomReadTime(r.bytes, r.span)
		if t > budget {
			break
		}
		budget -= t
		d.stats.BusyTime += t
		d.lastTickSync += t
		d.stats.ReadOps++
		d.stats.ReadBytes += r.bytes
		d.pendingReads = d.pendingReads[1:]
		readsDone++
	}
	if len(d.pendingReads) == 0 {
		d.pendingReads = nil // release backing array
	}

	d.spare = budget
	d.stats.QueuedReads = len(d.pendingReads)
	return readsDone
}

// Spare returns the service time left in the current tick after Tick served
// the synchronous classes. The flusher uses it to size write-back batches.
func (d *Disk) Spare() time.Duration { return d.spare }

// LastTickSyncLoad returns the fraction of the most recent tick spent on
// synchronous work (debt repayment, commits, reads) — the utilization user
// transactions queue behind. Background write-back uses only spare time and
// is excluded.
func (d *Disk) LastTickSyncLoad(dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	u := float64(d.lastTickSync) / float64(dt)
	if u > 1 {
		u = 1
	}
	return u
}

// WriteBack writes up to n dirty pages of pageBytes each, sorted over an
// extent spanning `span` of the disk, consuming at most the spare time left
// in the current tick plus — if force is set — time borrowed from the next
// tick (modelling a forced checkpoint that blocks foreground work). It
// returns the number of pages actually written.
func (d *Disk) WriteBack(n int, pageBytes int, span float64, force bool) int {
	if n <= 0 {
		return 0
	}
	per := d.writeBackTime(pageBytes, n, span)
	if per <= 0 {
		return 0
	}
	var affordable int
	if force {
		budget := d.spare + (maxDebt - d.debt)
		if budget < 0 {
			budget = 0
		}
		affordable = int(float64(budget) / float64(per))
		if affordable > n {
			affordable = n
		}
	} else {
		affordable = int(float64(d.spare) / float64(per))
		if affordable > n {
			affordable = n
		}
	}
	if affordable <= 0 {
		return 0
	}
	// Re-price at the actual batch size: a smaller batch sweeps the same
	// extent with fewer stops, so per-page cost rises.
	per = d.writeBackTime(pageBytes, affordable, span)
	total := time.Duration(affordable) * per
	if force {
		// Borrow from future capacity (bounded): the overrun becomes debt
		// repaid before new work, briefly stalling foreground I/O.
		d.stats.BusyTime += total
		if total > d.spare {
			d.debt += total - d.spare
			d.spare = 0
		} else {
			d.spare -= total
		}
	} else {
		if total > d.spare {
			total = d.spare
		}
		d.stats.BusyTime += total
		d.spare -= total
	}
	d.stats.PageWriteOps += int64(affordable)
	d.stats.PageWriteBytes += int64(affordable) * int64(pageBytes)
	return affordable
}

// QueuedReads returns the number of reads still waiting for service.
func (d *Disk) QueuedReads() int { return len(d.pendingReads) }

// QueuedLogBatches returns the number of log batches awaiting service.
// A growing log queue means commits are waiting on the disk; the DBMS uses
// it to apply commit backpressure.
func (d *Disk) QueuedLogBatches() int { return len(d.pendingLog) }

// QueuedLogBatchesFor returns the number of pending log batches submitted
// by one stream. An instance gates its commits on its own stream's backlog,
// not on other tenants' flushes.
func (d *Disk) QueuedLogBatchesFor(stream int) int {
	n := 0
	for _, r := range d.pendingLog {
		if r.stream == stream {
			n++
		}
	}
	return n
}

// Stats returns cumulative statistics since creation.
func (d *Disk) Stats() Stats {
	s := d.stats
	s.QueuedReads = len(d.pendingReads)
	return s
}

// TakeStats returns statistics accumulated since the previous TakeStats call
// (or creation) and starts a new accounting window.
func (d *Disk) TakeStats() Stats {
	cur := d.Stats()
	w := Stats{
		ReadOps:        cur.ReadOps - d.lastStats.ReadOps,
		ReadBytes:      cur.ReadBytes - d.lastStats.ReadBytes,
		LogBytes:       cur.LogBytes - d.lastStats.LogBytes,
		LogFlushes:     cur.LogFlushes - d.lastStats.LogFlushes,
		PageWriteOps:   cur.PageWriteOps - d.lastStats.PageWriteOps,
		PageWriteBytes: cur.PageWriteBytes - d.lastStats.PageWriteBytes,
		BusyTime:       cur.BusyTime - d.lastStats.BusyTime,
		ElapsedTime:    cur.ElapsedTime - d.lastStats.ElapsedTime,
		QueuedReads:    cur.QueuedReads,
	}
	d.lastStats = cur
	return w
}
