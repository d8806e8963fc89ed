// Package dbms simulates a multi-database OLTP DBMS instance in the style of
// MySQL/InnoDB (and, with an OS file cache enabled, PostgreSQL). It is the
// substrate every Kairos experiment runs on: the paper measures real MySQL
// and PostgreSQL servers; this simulator implements the mechanisms those
// measurements depend on, so the same monitoring and modelling techniques
// work against it.
//
// The mechanisms that matter (Sections 3–4 of the paper):
//
//   - a strict-LRU buffer pool shared by all hosted databases, so stealing
//     pool space (the probe table) evicts the coldest pages and evicted hot
//     pages come back as physical reads — the signal buffer-pool gauging
//     detects;
//   - a write-ahead log with group commit: one sequential stream per
//     instance regardless of how many databases it hosts;
//   - a background flusher that uses idle disk bandwidth aggressively
//     (MySQL-style), so measured standalone I/O overstates required I/O;
//   - page write-back that is sub-linear in update rate, because updates
//     spread over a working set re-dirty already-dirty pages;
//   - CPU accounting with a base OS+DBMS overhead per instance, the term
//     Kairos subtracts when predicting combined CPU load.
//
// Time advances in fixed ticks driven by Instance.Tick.
package dbms

import (
	"fmt"
	"time"

	"kairos/internal/disk"
	"kairos/internal/unit"
)

// Config holds the tunables of a simulated DBMS instance. Zero values are
// replaced by the corresponding DefaultConfig values in NewInstance only
// where noted; otherwise they are validation errors.
type Config struct {
	// PageSize is the database page size in bytes (InnoDB default 16 KiB).
	PageSize int
	// BufferPoolBytes is the size of the DBMS-managed buffer pool.
	BufferPoolBytes int64
	// OSCacheBytes enables a second-level OS file cache of this size
	// (PostgreSQL-style configuration). Zero means O_DIRECT (MySQL-style).
	OSCacheBytes int64
	// CPUCores and CoreOpsPerSec define CPU capacity: a core executes
	// CoreOpsPerSec abstract operations per second.
	CPUCores      int
	CoreOpsPerSec float64
	// GroupCommitInterval batches log flushes: at most one physical flush
	// per interval regardless of commit rate.
	GroupCommitInterval time.Duration
	// LogRecordBytes is the log volume per updated row.
	LogRecordBytes int
	// MaxDirtyFraction forces synchronous write-back when the dirty share
	// of the pool exceeds it.
	MaxDirtyFraction float64
	// SoftDirtyFraction is the flusher's target dirty share: above it the
	// flusher writes back opportunistically using spare disk time. Keeping
	// pages dirty below the target lets hot pages absorb many updates — the
	// source of the paper's sub-linear write-back (Figure 4).
	SoftDirtyFraction float64
	// MaxDirtyAge bounds how long a page may stay dirty before the flusher
	// writes it back (InnoDB's checkpoint-age pressure).
	MaxDirtyAge time.Duration
	// IdleFlushBatch caps how many dirty pages the idle flusher tries to
	// write per tick using spare disk time.
	IdleFlushBatch int
	// LogFileBytes bounds the redo log. Pages whose clean→dirty transition
	// is older than ~80% of this log window are force-flushed (InnoDB's
	// checkpoint-age pressure), and if flushing falls so far behind that a
	// dirty page would slip out of the log window, a synchronous flush
	// storm fires — the paper's ~150 ms checkpoint latency spikes.
	LogFileBytes int64
	// ProcessRAMBytes is the DBMS process overhead outside the buffer pool
	// (the paper uses ≈190 MB for MySQL).
	ProcessRAMBytes int64
	// OSRAMBytes is the operating system's memory footprint (≈64 MB).
	OSRAMBytes int64
	// BaseCPUFraction is the background OS+DBMS CPU overhead of one
	// instance, as a fraction of total capacity. Kairos' combined-CPU model
	// subtracts this per eliminated instance.
	BaseCPUFraction float64
	// CPUPerRead/CPUPerUpdate/CPUPerTxn are abstract operation costs.
	CPUPerRead   float64
	CPUPerUpdate float64
	CPUPerTxn    float64
	// Seed makes page-access randomness reproducible.
	Seed uint64
}

// DefaultConfig returns a configuration modelled on the paper's Server 1:
// two quad-core 2.66 GHz Xeons, 32 GB RAM, one 7200 RPM SATA disk, running
// MySQL with a large buffer pool.
func DefaultConfig() Config {
	return Config{
		PageSize:            16 << 10,
		BufferPoolBytes:     953 << 20, // the paper's gauging experiments use 953 MB
		OSCacheBytes:        0,
		CPUCores:            8,
		CoreOpsPerSec:       2.0e6,
		GroupCommitInterval: 10 * time.Millisecond,
		LogRecordBytes:      220,
		MaxDirtyFraction:    0.75,
		SoftDirtyFraction:   0.10,
		MaxDirtyAge:         30 * time.Second,
		IdleFlushBatch:      512,
		LogFileBytes:        160 << 20,
		ProcessRAMBytes:     190 << 20,
		OSRAMBytes:          64 << 20,
		BaseCPUFraction:     0.02,
		CPUPerRead:          60,
		CPUPerUpdate:        150,
		CPUPerTxn:           300,
		Seed:                1,
	}
}

// Database is one logical database hosted by an Instance.
type Database struct {
	id   int
	name string
	// dataPages is the on-disk size of the database in pages.
	dataPages int64
	stats     DBStats
	last      DBStats
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// DataPages returns the database size in pages.
func (db *Database) DataPages() int64 { return db.dataPages }

// DBStats counts activity for one database. All counters are cumulative.
type DBStats struct {
	Txns       int64
	Reads      int64 // logical page accesses by reads
	Updates    int64 // row updates
	BPHits     int64
	BPMisses   int64
	OSCacheHit int64 // misses absorbed by the OS file cache
	PhysReads  int64 // misses that reached the disk
	LogBytes   int64
	// CPUOps is the abstract CPU work executed on behalf of the database.
	CPUOps float64
	// DeferredWork counts operations pushed to later ticks by saturation.
	DeferredWork int64
}

// MissRatio returns the buffer-pool miss ratio over all page accesses.
func (s DBStats) MissRatio() float64 {
	total := s.BPHits + s.BPMisses
	if total == 0 {
		return 0
	}
	return float64(s.BPMisses) / float64(total)
}

// Stats returns cumulative statistics for the database.
func (db *Database) Stats() DBStats { return db.stats }

// TakeStats returns statistics accumulated since the last TakeStats call.
func (db *Database) TakeStats() DBStats {
	cur := db.stats
	w := DBStats{
		Txns:         cur.Txns - db.last.Txns,
		Reads:        cur.Reads - db.last.Reads,
		Updates:      cur.Updates - db.last.Updates,
		BPHits:       cur.BPHits - db.last.BPHits,
		BPMisses:     cur.BPMisses - db.last.BPMisses,
		OSCacheHit:   cur.OSCacheHit - db.last.OSCacheHit,
		PhysReads:    cur.PhysReads - db.last.PhysReads,
		LogBytes:     cur.LogBytes - db.last.LogBytes,
		CPUOps:       cur.CPUOps - db.last.CPUOps,
		DeferredWork: cur.DeferredWork - db.last.DeferredWork,
	}
	db.last = cur
	return w
}

// Request is one database's workload demand for a tick.
type Request struct {
	DB *Database
	// Txns is the number of transactions in the batch (affects CPU and
	// group-commit flush counting).
	Txns int
	// Reads is the number of logical page accesses, drawn uniformly from
	// the working set.
	Reads int
	// Updates is the number of row updates, each dirtying a working-set
	// page and appending a log record.
	Updates int
	// WorkingSetPages bounds the page range accesses are drawn from.
	WorkingSetPages int64
	// UpdateLocality is the fraction of updates directed at the hottest 5%
	// of the working set, modelling skewed OLTP write patterns (TPC-C's
	// district/stock rows). Zero means uniform updates — the behaviour of
	// the paper's synthetic sweep workload.
	UpdateLocality float64
	// ExtraCPU is additional CPU work in abstract ops (e.g. the synthetic
	// benchmark's expensive cryptographic selects).
	ExtraCPU float64
}

// TickResult summarises one tick of execution.
type TickResult struct {
	// CPUUtilization is the fraction of CPU capacity used this tick.
	CPUUtilization float64
	// DiskUtilization is the disk busy fraction this tick.
	DiskUtilization float64
	// AvgLatency estimates the mean transaction latency for the tick from
	// service demand and queueing (M/G/1-style 1/(1-ρ) scaling).
	AvgLatency time.Duration
	// Checkpoint reports whether a log-reclamation checkpoint fired.
	Checkpoint bool
	// CompletedTxns counts transactions that actually executed this tick
	// (requested work beyond saturation is deferred).
	CompletedTxns int64
}

// backlogEntry is deferred work for one database.
type backlog struct {
	txns     float64
	reads    float64
	updates  float64
	extra    float64
	wsPages  int64
	locality float64
}

// Instance is one simulated DBMS process hosting many databases.
type Instance struct {
	cfg  Config
	disk *disk.Disk
	id   int // log stream id on the shared disk

	bp      *lruCache
	osCache *lruCache // nil when OSCacheBytes == 0

	dbs    map[string]*Database
	nextID int

	rng xorshift

	backlogs map[int]*backlog

	logSinceCheckpoint int64
	totalLogBytes      int64
	// pendingEvictWrites counts dirty pages pushed out of the pool whose
	// contents still have to reach the disk; they are written as one batch
	// per tick so the elevator/batching discount applies.
	pendingEvictWrites int
	clock              time.Duration

	stats InstanceStats
}

// InstanceStats aggregates instance-wide counters.
type InstanceStats struct {
	CPUBusy     time.Duration
	Elapsed     time.Duration
	Checkpoints int64
	// LatencySum/LatencyTicks support an average-latency estimate.
	LatencySum   time.Duration
	LatencyTicks int64
	MaxLatency   time.Duration
}

// AvgCPUUtilization returns the lifetime CPU utilization of the instance.
func (s InstanceStats) AvgCPUUtilization() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	u := float64(s.CPUBusy) / float64(s.Elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// AvgLatency returns the mean of the per-tick latency estimates.
func (s InstanceStats) AvgLatency() time.Duration {
	if s.LatencyTicks == 0 {
		return 0
	}
	return s.LatencySum / time.Duration(s.LatencyTicks)
}

// NewInstance creates a DBMS instance backed by the given disk. streamID
// distinguishes this instance's log stream from other instances sharing the
// disk (the VM comparison experiments run many instances on one disk).
func NewInstance(cfg Config, d *disk.Disk, streamID int) (*Instance, error) {
	if d == nil {
		return nil, fmt.Errorf("dbms: nil disk")
	}
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("dbms: page size must be positive, got %d", cfg.PageSize)
	}
	if cfg.BufferPoolBytes < int64(cfg.PageSize) {
		return nil, fmt.Errorf("dbms: buffer pool %d smaller than one page", cfg.BufferPoolBytes)
	}
	if cfg.CPUCores <= 0 || cfg.CoreOpsPerSec <= 0 {
		return nil, fmt.Errorf("dbms: CPU capacity must be positive (cores=%d ops=%v)",
			cfg.CPUCores, cfg.CoreOpsPerSec)
	}
	if cfg.GroupCommitInterval <= 0 {
		return nil, fmt.Errorf("dbms: group commit interval must be positive, got %v", cfg.GroupCommitInterval)
	}
	if cfg.MaxDirtyFraction <= 0 || cfg.MaxDirtyFraction > 1 {
		return nil, fmt.Errorf("dbms: max dirty fraction must be in (0,1], got %v", cfg.MaxDirtyFraction)
	}
	in := &Instance{
		cfg:      cfg,
		disk:     d,
		id:       streamID,
		bp:       newLRUCache(int(cfg.BufferPoolBytes / int64(cfg.PageSize))),
		dbs:      make(map[string]*Database),
		backlogs: make(map[int]*backlog),
		rng:      xorshift(cfg.Seed | 1),
	}
	if cfg.OSCacheBytes > 0 {
		in.osCache = newLRUCache(int(cfg.OSCacheBytes / int64(cfg.PageSize)))
	}
	return in, nil
}

// Config returns the instance configuration.
func (in *Instance) Config() Config { return in.cfg }

// Disk returns the disk the instance runs on.
func (in *Instance) Disk() *disk.Disk { return in.disk }

// Clock returns the simulated time elapsed so far.
func (in *Instance) Clock() time.Duration { return in.clock }

// CreateDatabase registers a database of the given on-disk size.
func (in *Instance) CreateDatabase(name string, dataPages int64) (*Database, error) {
	if _, ok := in.dbs[name]; ok {
		return nil, fmt.Errorf("dbms: database %q already exists", name)
	}
	if dataPages < 0 {
		return nil, fmt.Errorf("dbms: negative size %d for database %q", dataPages, name)
	}
	db := &Database{id: in.nextID, name: name, dataPages: dataPages}
	in.nextID++
	in.dbs[name] = db
	return db, nil
}

// Database looks up a database by name.
func (in *Instance) Database(name string) (*Database, bool) {
	db, ok := in.dbs[name]
	return db, ok
}

// Databases returns all hosted databases.
func (in *Instance) Databases() []*Database {
	out := make([]*Database, 0, len(in.dbs))
	for _, db := range in.dbs {
		out = append(out, db)
	}
	return out
}

// DropDatabase removes a database and evicts its pages.
func (in *Instance) DropDatabase(name string) error {
	db, ok := in.dbs[name]
	if !ok {
		return fmt.Errorf("dbms: database %q does not exist", name)
	}
	in.bp.DropDB(db.id)
	if in.osCache != nil {
		in.osCache.DropDB(db.id)
	}
	delete(in.backlogs, db.id)
	delete(in.dbs, name)
	return nil
}

// GrowDatabase appends pages to a database (used by the gauging probe
// table). The new pages enter the buffer pool dirty, exactly as freshly
// inserted rows would.
func (in *Instance) GrowDatabase(db *Database, pages int64) {
	start := db.dataPages
	for p := start; p < start+pages; p++ {
		in.admit(db, p)
		in.bp.MarkDirty(makeKey(db.id, p), in.clock, in.totalLogBytes)
		db.stats.LogBytes += int64(in.cfg.LogRecordBytes)
		in.totalLogBytes += int64(in.cfg.LogRecordBytes)
	}
	db.dataPages += pages
	in.logSinceCheckpoint += pages * int64(in.cfg.LogRecordBytes)
}

// DropBacklog discards all deferred work, as if the load generators were
// restarted. Profilers use it between the settle and measure windows so
// deferred settle-phase work cannot inflate measured throughput.
func (in *Instance) DropBacklog() {
	for id := range in.backlogs {
		delete(in.backlogs, id)
	}
}

// Preload admits pages [0, pages) of a database into the buffer pool without
// any I/O or statistics, modelling a server whose working set is already warm
// — the steady state the paper's profiling experiments start from.
func (in *Instance) Preload(db *Database, pages int64) {
	for p := int64(0); p < pages; p++ {
		in.admit(db, p)
	}
}

// ScanRange touches pages [0, pages) of a database sequentially through the
// buffer pool, as a COUNT(*) table scan would. It returns the number of
// physical reads it caused. The scan consumes no tick budget — the probe
// queries are deliberately cheap (the paper keeps probe overhead under 5%).
func (in *Instance) ScanRange(db *Database, pages int64) int64 {
	var phys int64
	for p := int64(0); p < pages; p++ {
		if in.access(db, p, false) {
			phys++
		}
	}
	return phys
}

// AllocatedRAMBytes returns what an OS would report for this instance: the
// process overhead plus every buffer-pool (and OS cache) page ever touched.
// This is the over-estimate the paper's Section 3 calls out.
func (in *Instance) AllocatedRAMBytes() int64 {
	alloc := in.cfg.ProcessRAMBytes + int64(in.bp.TouchedMax())*int64(in.cfg.PageSize)
	if in.osCache != nil {
		alloc += int64(in.osCache.TouchedMax()) * int64(in.cfg.PageSize)
	}
	return alloc
}

// ResidentPagesByDB reports how many buffer-pool pages each database holds.
func (in *Instance) ResidentPagesByDB() map[string]int {
	byID := in.bp.ResidentByDB()
	out := make(map[string]int, len(in.dbs))
	for name, db := range in.dbs {
		out[name] = byID[db.id]
	}
	return out
}

// BufferPoolPages returns the buffer pool capacity in pages.
func (in *Instance) BufferPoolPages() int { return in.bp.capPages }

// DirtyPages returns the current number of dirty pages in the pool.
func (in *Instance) DirtyPages() int { return in.bp.Dirty() }

// Stats returns cumulative instance statistics.
func (in *Instance) Stats() InstanceStats { return in.stats }

// admit brings a page into the buffer pool (no read accounting) and handles
// the eviction cascade into the OS cache.
func (in *Instance) admit(db *Database, page int64) {
	key := makeKey(db.id, page)
	ev, had := in.bp.Put(key)
	if !had {
		return
	}
	if ev.dirty {
		// Dirty eviction: the page contents must reach the disk. Writes are
		// batched per tick so the elevator/batching discount applies.
		in.pendingEvictWrites++
	}
	if in.osCache != nil {
		// Clean copy descends into the OS file cache.
		in.osCache.Put(ev.key)
	}
}

// access runs one logical page access. It returns true if the access caused
// a physical disk read. markDirty also dirties the page (row update).
func (in *Instance) access(db *Database, page int64, markDirty bool) (physical bool) {
	key := makeKey(db.id, page)
	if in.bp.Get(key) {
		db.stats.BPHits++
	} else {
		db.stats.BPMisses++
		if in.osCache != nil && in.osCache.Contains(key) {
			// Served from the OS file cache: no physical I/O.
			in.osCache.Drop(key)
			db.stats.OSCacheHit++
		} else {
			db.stats.PhysReads++
			in.disk.SubmitRead(1, in.cfg.PageSize, in.spanFor(db))
			physical = true
		}
		in.admit(db, page)
	}
	if markDirty {
		in.bp.MarkDirty(key, in.clock, in.totalLogBytes)
	}
	return physical
}

// spanFor returns the seek span of a database's hot extent. The working set
// is clustered, so the span tracks the working set rather than the full
// table — the property behind the paper's Figure 12a (database size does
// not influence disk throughput).
func (in *Instance) spanFor(db *Database) float64 {
	ws := db.dataPages
	if bl, ok := in.backlogs[db.id]; ok && bl.wsPages > 0 && bl.wsPages < ws {
		ws = bl.wsPages
	}
	return in.disk.SpanFraction(ws * int64(in.cfg.PageSize))
}

// CPUCapacityOps returns the usable CPU ops available in a window of the
// given length after the instance's base overhead — the denominator monitors
// use to convert per-database CPU ops into utilization fractions.
func (in *Instance) CPUCapacityOps(d time.Duration) float64 {
	return in.cpuCapacityOps(d)
}

// cpuCapacityOps returns usable CPU ops for a tick after the base overhead.
func (in *Instance) cpuCapacityOps(dt time.Duration) float64 {
	total := float64(in.cfg.CPUCores) * in.cfg.CoreOpsPerSec * dt.Seconds()
	return total * (1 - in.cfg.BaseCPUFraction)
}

// Tick runs one full simulation step on an instance that owns its disk:
// enqueue demands, execute with the instance's full CPU capacity, advance
// the disk, then run the flusher and produce the tick summary. Hosts that
// share a disk between instances call Enqueue/RunWork/PostTick directly and
// drive disk.Tick themselves.
func (in *Instance) Tick(dt time.Duration, reqs []Request) TickResult {
	in.Enqueue(reqs)
	st := in.RunWork(dt, in.cpuCapacityOps(dt))
	busyBefore := in.disk.Stats().BusyTime
	in.disk.Tick(dt)
	res := in.PostTick(dt, st)
	busy := in.disk.Stats().BusyTime - busyBefore
	util := float64(busy) / float64(dt)
	if util > 1 {
		util = 1
	}
	res.DiskUtilization = util
	// Latency queues behind synchronous disk work only: background
	// write-back yields to reads and commits, so it does not delay them.
	res.AvgLatency = in.finishLatency(dt, st, res.Checkpoint, in.disk.LastTickSyncLoad(dt))
	return res
}

// Enqueue adds workload demands behind any deferred work.
func (in *Instance) Enqueue(reqs []Request) {
	for _, r := range reqs {
		if r.DB == nil {
			continue
		}
		bl := in.backlogs[r.DB.id]
		if bl == nil {
			bl = &backlog{}
			in.backlogs[r.DB.id] = bl
		}
		bl.txns += float64(r.Txns)
		bl.reads += float64(r.Reads)
		bl.updates += float64(r.Updates)
		bl.extra += r.ExtraCPU
		if r.WorkingSetPages > 0 {
			bl.wsPages = r.WorkingSetPages
		}
		if r.UpdateLocality > 0 {
			bl.locality = r.UpdateLocality
		}
	}
}

// DemandCPUOps estimates the CPU work (in abstract ops) needed to clear the
// current backlog. Hosts use it to divide a shared CPU among instances with
// max-min fairness.
func (in *Instance) DemandCPUOps() float64 {
	var ops float64
	for _, bl := range in.backlogs {
		ops += bl.reads*in.cfg.CPUPerRead + bl.updates*in.cfg.CPUPerUpdate +
			bl.txns*in.cfg.CPUPerTxn + bl.extra
	}
	return ops
}

// SubmitState carries per-tick accounting from RunWork to PostTick.
type SubmitState struct {
	// CPUUsed and CPUBudget are in abstract ops.
	CPUUsed, CPUBudget float64
	// Txns and Updates are the operations completed this tick.
	Txns, Updates float64
	// Active is the number of databases that had work this tick.
	Active int
}

// CPUUtilization returns the fraction of the granted budget that was used.
func (st SubmitState) CPUUtilization() float64 {
	if st.CPUBudget <= 0 {
		return 0
	}
	u := st.CPUUsed / st.CPUBudget
	if u > 1 {
		u = 1
	}
	return u
}

// RunWork executes backlogged work within the given CPU budget, issuing
// buffer-pool accesses and submitting log writes. It advances the instance
// clock by dt but does not advance the disk.
func (in *Instance) RunWork(dt time.Duration, cpuBudget float64) SubmitState {
	in.clock += dt
	in.stats.Elapsed += dt

	st := SubmitState{CPUBudget: cpuBudget}
	var totalTxns, totalUpdates float64

	// Round-robin execution in small proportional slices so saturation hits
	// all databases — and all operation classes within a database — evenly
	// (the paper observes MySQL divides resources fairly across databases).
	const sliceOps = 64
	// Disk backpressure: stop issuing page misses once the read queue is
	// about two ticks deep, and stop committing once the shared log queue
	// backs up (commits must wait for their flush).
	maxQueuedReads := in.maxReadsPerTick(dt) * 2
	const maxOwnLogBatches = 1
	blockedReads, blockedLog := false, false
	// Writer throttling (InnoDB sync-flush avoidance): once the oldest
	// dirty page's redo age nears the log capacity, commits must wait for
	// the flusher. Without this a fast writer drowns the disk in forced
	// flushes and the whole instance stalls.
	ageCritical := func() bool {
		if in.cfg.LogFileBytes <= 0 {
			return false
		}
		oldest, ok := in.bp.OldestDirtyLSN()
		return ok && in.totalLogBytes-oldest > in.cfg.LogFileBytes*95/100
	}

	active := make([]*Database, 0, len(in.dbs))
	for _, db := range in.dbs {
		if bl, ok := in.backlogs[db.id]; ok && bl.reads+bl.updates+bl.txns >= 1 {
			active = append(active, db)
		}
	}
	// Deterministic order regardless of map iteration.
	sortDatabases(active)
	st.Active = len(active)

	progress := true
	for progress && !(blockedReads && blockedLog) && cpuBudget > 0 {
		progress = false
		for _, db := range active {
			if cpuBudget <= 0 {
				break
			}
			bl := in.backlogs[db.id]
			total := bl.reads + bl.updates + bl.txns
			if total < 1 {
				continue
			}
			ws := bl.wsPages
			if ws <= 0 {
				ws = 1
			}
			// Split this slice across the classes in proportion to their
			// remaining work, so reads cannot starve updates or commits.
			n := float64(sliceOps)
			if n > total {
				n = total
			}
			nr := int(n * bl.reads / total)
			nu := int(n * bl.updates / total)
			nt := int(n) - nr - nu
			// Guarantee every class with pending work at least one slot per
			// slice: integer truncation must not let a huge backlog in one
			// class starve the others.
			if nr == 0 && bl.reads >= 1 {
				nr = 1
			}
			if nu == 0 && bl.updates >= 1 {
				nu = 1
			}
			if nt <= 0 && bl.txns >= 1 {
				nt = 1
			}
			if float64(nt) > bl.txns {
				nt = int(bl.txns)
			}
			perExtra := 0.0
			if bl.txns >= 1 {
				perExtra = bl.extra / bl.txns
			}
			for i := 0; i < nr && cpuBudget > 0 && !blockedReads; i++ {
				if in.disk.QueuedReads() > maxQueuedReads {
					blockedReads = true
					break
				}
				bl.reads--
				in.access(db, int64(in.rng.Intn(ws)), false)
				db.stats.Reads++
				db.stats.CPUOps += in.cfg.CPUPerRead
				cpuBudget -= in.cfg.CPUPerRead
				st.CPUUsed += in.cfg.CPUPerRead
				progress = true
			}
			// Updates may miss (a read) and must commit (a log write), so
			// they are gated on both queues.
			for i := 0; i < nu && cpuBudget > 0 && !blockedReads && !blockedLog; i++ {
				if in.disk.QueuedReads() > maxQueuedReads {
					blockedReads = true
					break
				}
				if in.disk.QueuedLogBatchesFor(in.id) > maxOwnLogBatches || ageCritical() {
					blockedLog = true
					break
				}
				bl.updates--
				page := int64(in.rng.Intn(ws))
				if bl.locality > 0 && in.rng.Float() < bl.locality {
					hot := ws / 20
					if hot < 1 {
						hot = 1
					}
					page = int64(in.rng.Intn(hot))
				}
				in.access(db, page, true)
				db.stats.Updates++
				db.stats.LogBytes += int64(in.cfg.LogRecordBytes)
				in.totalLogBytes += int64(in.cfg.LogRecordBytes)
				totalUpdates++
				db.stats.CPUOps += in.cfg.CPUPerUpdate
				cpuBudget -= in.cfg.CPUPerUpdate
				st.CPUUsed += in.cfg.CPUPerUpdate
				progress = true
			}
			// Transactions wait on their reads and their commit flush, so
			// both blocks stall them.
			for i := 0; i < nt && cpuBudget > 0 && !blockedLog && !blockedReads; i++ {
				if in.disk.QueuedLogBatchesFor(in.id) > maxOwnLogBatches {
					blockedLog = true
					break
				}
				bl.txns--
				bl.extra -= perExtra
				if bl.extra < 0 {
					bl.extra = 0
				}
				db.stats.Txns++
				totalTxns++
				db.stats.CPUOps += in.cfg.CPUPerTxn + perExtra
				cpuBudget -= in.cfg.CPUPerTxn + perExtra
				st.CPUUsed += in.cfg.CPUPerTxn + perExtra
				progress = true
			}
		}
	}

	// Count deferred work for saturation diagnostics.
	for _, db := range active {
		bl := in.backlogs[db.id]
		if rem := int64(bl.reads + bl.updates + bl.txns); rem > 0 {
			db.stats.DeferredWork += rem
		}
	}

	// Log writes: one stream per instance; group commit caps flushes.
	logBytes := int64(totalUpdates) * int64(in.cfg.LogRecordBytes)
	if logBytes > 0 {
		maxFlushes := int64(dt / in.cfg.GroupCommitInterval)
		if maxFlushes < 1 {
			maxFlushes = 1
		}
		flushes := int64(totalTxns)
		if flushes > maxFlushes {
			flushes = maxFlushes
		}
		if flushes < 1 {
			flushes = 1
		}
		in.disk.SubmitLog(in.id, logBytes, flushes)
		in.logSinceCheckpoint += logBytes
	}

	st.Txns = totalTxns
	st.Updates = totalUpdates
	return st
}

// PostTick runs the flusher after the disk served the tick's synchronous
// work, and fills in the CPU side of the tick summary. Callers that own the
// disk (see Tick) additionally fill in disk utilization and latency;
// multi-instance hosts do that at host level.
func (in *Instance) PostTick(dt time.Duration, st SubmitState) TickResult {
	res := TickResult{
		CPUUtilization: st.CPUUtilization(),
		CompletedTxns:  int64(st.Txns),
	}
	// Evicted dirty pages must be written out ahead of other write-back:
	// their frames were reused, so the data exists only in the write
	// buffer. The disk bounds forced overrun, so a large burst (a bulk
	// load, a probe-table growth step) drains over several ticks instead
	// of starving reads.
	if in.pendingEvictWrites > 0 {
		wrote := in.disk.WriteBack(in.pendingEvictWrites, in.cfg.PageSize, in.hotSpan(), true)
		in.pendingEvictWrites -= wrote
	}
	// Flusher. Pressure sources, strongest first:
	//
	// 1. Checkpoint emergency: a dirty page is about to fall out of the
	//    redo-log window — synchronous flush storm (the paper's ~150 ms
	//    checkpoint latency spikes on MySQL).
	// 2. Checkpoint age: pages older than ~80% of the log window are
	//    force-flushed so the storm (1) stays rare.
	// 3. Time age: pages dirty longer than MaxDirtyAge go out using spare
	//    bandwidth (recovery-time hygiene).
	// 4. Soft dirty target: opportunistic write-back above the target;
	//    forced once the dirty share reaches MaxDirtyFraction.
	// 5. Idle flushing: with no user work this tick, flush aggressively —
	//    the MySQL behaviour that makes standalone measured I/O overstate
	//    the true requirement (paper Section 4.1).
	if in.cfg.LogFileBytes > 0 {
		if oldest, ok := in.bp.OldestDirtyLSN(); ok && in.totalLogBytes-oldest >= in.cfg.LogFileBytes {
			in.flushKeys(in.bp.CollectDirtyOlder(in.totalLogBytes-in.cfg.LogFileBytes*3/4,
				time.Duration(1)<<62, in.bp.Dirty()), true)
			in.stats.Checkpoints++
			res.Checkpoint = true
		} else {
			cutoff := in.totalLogBytes - in.cfg.LogFileBytes*4/5
			if cutoff > 0 {
				in.flushKeys(in.bp.CollectDirtyOlder(cutoff, -1, 2*in.cfg.IdleFlushBatch), true)
			}
		}
	}
	if !res.Checkpoint {
		if in.cfg.MaxDirtyAge > 0 && in.clock > in.cfg.MaxDirtyAge {
			in.flushKeys(in.bp.CollectDirtyOlder(-1, in.clock-in.cfg.MaxDirtyAge, in.cfg.IdleFlushBatch), false)
		}
		if frac := in.dirtyFraction(); frac > in.cfg.MaxDirtyFraction {
			excess := int((frac - in.cfg.SoftDirtyFraction) * float64(in.bp.capPages))
			in.flushKeys(in.bp.CollectDirty(excess), true)
		} else if target := int(in.cfg.SoftDirtyFraction * float64(in.bp.capPages)); in.bp.Dirty() > target {
			in.flushKeys(in.bp.CollectDirty(in.bp.Dirty()-target), false)
		}
		if st.Active == 0 {
			in.flushKeys(in.bp.CollectDirty(in.cfg.IdleFlushBatch), false)
		}
	}
	in.stats.CPUBusy += time.Duration(res.CPUUtilization * float64(dt))
	return res
}

// finishLatency estimates the tick's mean transaction latency: service
// demand scaled by M/G/1-style queueing at the busier resource, plus half
// the group-commit window for writes.
func (in *Instance) finishLatency(dt time.Duration, st SubmitState, checkpoint bool, diskUtil float64) time.Duration {
	rho := st.CPUUtilization()
	if diskUtil > rho {
		rho = diskUtil
	}
	queue := 1000.0
	if rho < 0.999 {
		queue = 1 / (1 - rho)
	}
	if queue > 1000 {
		queue = 1000
	}
	base := 2 * time.Millisecond
	if st.Txns > 0 && st.CPUUsed > 0 {
		perTxnOps := st.CPUUsed / st.Txns
		base = time.Duration(perTxnOps / in.cfg.CoreOpsPerSec * float64(time.Second))
		if base < 500*time.Microsecond {
			base = 500 * time.Microsecond
		}
	}
	lat := time.Duration(float64(base)*queue) + in.cfg.GroupCommitInterval/2
	if checkpoint {
		lat += 150 * time.Millisecond
	}
	if lat > 10*time.Second {
		lat = 10 * time.Second
	}
	in.stats.LatencySum += lat
	in.stats.LatencyTicks++
	if lat > in.stats.MaxLatency {
		in.stats.MaxLatency = lat
	}
	return lat
}

// maxReadsPerTick estimates how many random reads fit in one tick.
func (in *Instance) maxReadsPerTick(dt time.Duration) int {
	p := in.disk.Params()
	per := p.FullSeekMs/3 + unit.Ms(60.0/p.RPM/2*1000)
	n := int(float64(dt.Milliseconds()) / float64(per))
	if n < 4 {
		n = 4
	}
	return n
}

// dirtyFraction returns the dirty share of the buffer pool.
func (in *Instance) dirtyFraction() float64 {
	if in.bp.capPages == 0 {
		return 0
	}
	return float64(in.bp.Dirty()) / float64(in.bp.capPages)
}

// flushKeys writes back the given dirty pages, optionally forcing the
// writes past the tick's spare capacity. The batch is submitted sorted, so
// the disk's elevator pricing applies.
func (in *Instance) flushKeys(keys []pageKey, force bool) {
	if len(keys) == 0 {
		return
	}
	span := in.hotSpan()
	wrote := in.disk.WriteBack(len(keys), in.cfg.PageSize, span, force)
	for _, k := range keys[:wrote] {
		in.bp.Clean(k)
	}
	for _, k := range keys[wrote:] {
		in.bp.Requeue(k)
	}
}

// hotSpan returns the combined seek span of all hosted working sets.
func (in *Instance) hotSpan() float64 {
	var pages int64
	for _, db := range in.dbs {
		if bl, ok := in.backlogs[db.id]; ok && bl.wsPages > 0 {
			pages += bl.wsPages
		} else {
			pages += db.dataPages
		}
	}
	return in.disk.SpanFraction(pages * int64(in.cfg.PageSize))
}

// sortDatabases orders databases by id for deterministic iteration.
func sortDatabases(dbs []*Database) {
	for i := 1; i < len(dbs); i++ {
		for j := i; j > 0 && dbs[j-1].id > dbs[j].id; j-- {
			dbs[j-1], dbs[j] = dbs[j], dbs[j-1]
		}
	}
}

// xorshift is a tiny deterministic RNG (xorshift64*), cheaper than math/rand
// for the per-access page draws.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v * 0x2545F4914F6CDD1D
}

// Float returns a deterministic pseudo-random float64 in [0, 1).
func (x *xorshift) Float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// Intn returns a deterministic pseudo-random int in [0, n).
func (x *xorshift) Intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(x.next() % uint64(n))
}
