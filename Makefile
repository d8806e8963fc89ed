# Kairos build targets. Every step of .github/workflows/ci.yml runs one of
# them (TestCIRunsMakeTargets checks it), so this file is the one list of
# the commands and test regexes CI runs.

GO ?= go

# The ingest path's in-package benchmarks (make bench-hot).
INGEST_BENCH = SeriesNumber|Decode(Window|Register|Snapshot)197|IngestWindow197|OpenReplay197|Append2MB|Recover64x2MB|Read64x2MB

# The wire decoders whose counts BENCH_counts.json pins (make
# bench-counts): a 197-server window, registration and snapshot through
# the series decoder. allocs/op is about 1k, 1k and 4k against
# encoding/json's 8k and 32k; slow-numbers, the numbers the one-pass
# conversion handed back to strconv, is 0; parsed-numbers, the samples
# converted rather than copied from an equal token before them, is about
# half of the 227k, 227k and 908k samples (a flat RAM or working-set
# series parses once).
WIRE_COUNT_BENCH = Decode(Window|Register|Snapshot)197/fast

# The ingest whose allocs/op and B/op BENCH_counts.json pins (make
# bench-counts): one quiet 197-server window through Handler().ServeHTTP to
# its ack, in memory and durable at -fsync none. B/op is about what the
# fleet keeps of the window, its decoded samples: a body read into a fresh
# buffer, a record copied to be framed (the journal writes a frame from
# the record's parts), a series copied or a forecast built to be scored
# adds megabytes.
INGEST_COUNT_BENCH = IngestWindow197

# The restart whose allocs/op and B/op BENCH_counts.json pins (make bench-counts):
# server.Open on a snapshot and a journal of eight 197-server windows and
# an advance. Replay reads and decodes records on a worker pool ahead of
# the loop that applies them, each worker reading one frame at a time into
# a buffer of its own; the pin is what keeps that from paying for wall time
# with garbage per record, and B/op is what fails a return to reading the
# whole log into a buffer of its size.
REPLAY_COUNT_BENCH = OpenReplay197

# The journal read whose B/op BENCH_counts.json pins (make bench-counts): 64
# window-sized records through a journal.Reader lent one buffer. An op
# allocates a few hundred bytes; a reader that allocates per record adds
# two megabytes each.
READ_COUNT_BENCH = Read64x2MB

# The journal append whose allocs/op and B/op BENCH_counts.json pins at 0
# (make bench-counts): a window record framed from its parts, the head, a
# 2.2 MB span and "}}". A journal that copies a record to frame it adds
# the record's size.
APPEND_COUNT_BENCH = Append2MB/parts

# The whole-solve benchmarks whose work counters (fevals, priced, screened,
# eval-priced, probes, machines) BENCH_counts.json pins (make bench-counts):
# cold local-search solves of ALL-197 and SecondLife-97 + disk model, cold
# DIRECT solves of SecondLife-97 and Wikipedia-40, one warm re-solve of the
# drifted ALL-197, one greedy packing. The four cold solves pin gap too: K
# above the lower bound they searched from. Then the re-solve matrix, 18
# drifted and phase-shifted re-solves per fleet: its machines (Σ K),
# infeasible, migrated and fevals per fleet.
COUNT_BENCH = ColdSolve(ALL197|SecondLife97Disk|SecondLife97Direct|Wikipedia40Direct)$$|ResolveWarmALL197|GreedyPackALL197|ResolveMatrix

# The work that takes the CPU budget's helpers (make bench-hot): the live
# decoders' speculative split and the cold solves' speculated K probes,
# cold-seed climbs and greedy packings. The -cpu 2 rows show the gain; the
# -cpu 1 rows have no helper slot, are the one-goroutine paths and must not
# move.
CORES_BENCH = Decode(Window|Register)197/fast|ColdSolve(ALL197|SecondLife97Direct)$$

# The cold solve's per-phase in-package benchmarks (make bench-hot): a
# recorded DIRECT run replayed through Eval, exact swap pricing with and
# without the disk model, the disk polynomial, greedy seeding, the cold
# ALL-197 solve over a one-week horizon (T = 2016), then the whole solves
# above.
SOLVE_BENCH = EvalDirectReplay|PriceSwap(NoDisk|Disk)|Poly2DEvalDeg2|GreedySeedPerSolve|ColdSolveALL197Week|$(COUNT_BENCH)

.PHONY: build test test-full race race-full race-server race-cores crash-matrix fuzz-smoke bench-module bench bench-hot bench-resolve bench-drift bench-counts serve-smoke lint fma-check vulncheck loc fmt ci

build:
	$(GO) build ./...

# Fast suite: skips the simulated profiler sweeps and long co-location runs.
test:
	$(GO) test -short ./...

# Full suite, including the slow model/vm/figure tests (the tier-1 verify
# command from ROADMAP.md).
test-full:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race -short ./...

# Full suite under the race detector, including the slow model/vm tests.
# CI runs this as its own job; locally it is the long-form race gate.
race-full:
	$(GO) test -race ./...

# Control-plane tests under the race detector, full (not -short): includes
# the 197-server HTTP e2e with concurrent collectors. Then race-cores.
race-server:
	$(GO) test -race ./internal/server/
	$(MAKE) race-cores

# The one list of the tests raced at several core counts; CI's race job
# runs this target. The recovery tests at -cpu 1,4: replay's decode helpers
# are the CPU budget's free slots, GOMAXPROCS - 1, so this races the apply
# loop decoding alone and beside three helpers. Then, at -cpu 1,2,8, the
# tests of every fork site: README's spawn-site table (Static analysis,
# checked by TestSpawnSitesListed) names each site with the test that holds
# its join, and the -run lists below select those tests.
race-cores:
	$(GO) test -race -cpu 1,4 -run 'Replay|Recover|Crash|Restart|RegistryMutation' ./internal/server/
	$(GO) test -race -cpu 1,2,8 -run 'Split|DecodeWindow|DecodeRegister|Hold|CPUBudget|RecycledBody|FleetTurn|CheckedWindow|WindowDecodesBeforeItsTurn|DecoderPanic' ./internal/server/
	$(GO) test -race -cpu 1,2,8 -run 'AppendChecked|AppendWaitsForCheckedAppend|FramesOnDisk' ./internal/journal/
	$(GO) test -race -cpu 1,2,8 ./internal/cpu/
	$(GO) test -race -cpu 1,2,8 -run 'Procs|Resolve|Golden' ./internal/core/
	$(GO) test -race -cpu 1,2,8 ./internal/drift/
	$(GO) test -race -cpu 1,2,8 -run 'FleetOneWriter|ForecastIndexMatchesScan' .

# Crash matrix: the durability gate. Kills the journaled control plane at
# every fault-injection point, restarts from the state directory and
# checks what a restart keeps against what the live daemon acked; then the
# journal's own torn tails, bit flips and snapshot crash points. The -run
# lists below are the one list of its tests; README's "Durability & crash
# recovery" section says what the gate guarantees.
crash-matrix:
	$(GO) test -run 'TestCrashMatrix|TestCrashBetweenWindowAndOutcome|TestBackoffAckSurvivesRestart|TestFailedSolveWindowIsAcked|TestRecoveryAfterGracefulClose|TestDeregisterSurvivesRestart|TestRegistryMutationDuringSnapshot|TestRegistryRefusalSurvivesRestart|TestIdempotentIngestLive|TestReplayAheadMatchesSequential|TestReplayDecodeErrorIsTheFirstInOrder|TestReplayLeavesNoGoroutines|TestReplayReadsOneRecordPerWorker|TestReplayEqualsLiveAtEverySnapshot|TestPartialWindowTriggerSurvivesRestart|TestUncommittedTriggerRestart|TestReplayRetiredRearmRecord|TestReplayRefusedDriftOptions|TestAckRingBound|TestCheckedWindowCrashBeforeCommit|TestCheckedWindowRefusalsLeaveJournal' -v ./internal/server/
	$(GO) test -run 'TestTornTail|TestBitFlips|TestSnapshotCrash|TestCorruptSnapshot|TestTornAppendPoisonsLog|TestPropertyReplayEqualsModel|TestReaderMatchesOpen|TestFramesOnDiskAreTheReference|TestAppendCheckedRefusalLeavesNoTrace|TestAppendCheckedCrashBeforeCommit' -v ./internal/journal/

# Fuzz smoke: ten seconds each of the differential fuzz between the series
# decoder's four entry points (window, registration, journal record,
# snapshot) and encoding/json, and between its one-pass number conversion
# and the grammar scan + strconv.ParseFloat it replaced; any divergence in
# what they accept or decode fails it. Then ten seconds of arbitrary bytes
# as the journal and snapshot files (journal.Open never panics, and what it
# recovers is the whole frames the input begins with) and as a trace CSV
# (fleet.ReadCSV never panics, and what it loads survives WriteCSV →
# ReadCSV) and as a saved plan (core.LoadIncumbent never panics, what it
# loads survives Save → LoadIncumbent and warm-starts Resolve). Then ten
# seconds of the sweep screen's checks: deciding one from an exp bracket
# must answer as the plain expression on math.Exp does. The window and
# registration targets lower the chunk minimum, so with two or more cores
# every input goes through the speculative split.
fuzz-smoke:
	for f in DecodeWindow DecodeRegister DecodeRecord DecodeSnapshot SeriesNumber; do \
		$(GO) test -run='^$$' -fuzz="^Fuzz$$f\$$" -fuzztime=10s ./internal/server || exit 1; done
	$(GO) test -run='^$$' -fuzz='^FuzzOpen$$' -fuzztime=10s ./internal/journal
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=10s ./internal/fleet
	$(GO) test -run='^$$' -fuzz='^FuzzLoadIncumbent$$' -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzScreenDecision$$' -fuzztime=10s ./internal/core

# The end-to-end benchmark is a module of its own (bench/go.mod), outside
# ./...: vet it and run its unit tests (-short skips the -quick suite,
# which spawns daemons) so a change that breaks its build shows here.
bench-module:
	( cd bench && $(GO) vet ./... && $(GO) test -short ./... )

# Benchmark smoke: every benchmark once, no unit tests. The full figure
# benchmarks regenerate the paper's evaluation; see bench_test.go.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Hill-climb hot path: candidate-move pricing with the incremental
# LoadState engine vs the scratch evaluator, plus the sweep screened by the
# peak-step sample bound — its capacity stage first, which drops a
# candidate that overflows the receiving machine at its overall CPU or RAM
# peak step — vs the unscreened one, with allocation stats. The
# loadstate case must stay at 0 allocs/op and ≥5x the scratch speed, and
# the screened move+swap sweep at 0 allocs/op and ≥3x the unscreened
# sweep (sweep-speedup metric) on the 197-server fleet; tracked per PR.
# Then the phases of a cold solve on SecondLife-97 (a recorded 4000-sample
# DIRECT run through Eval, one exact swap pricing with and without the disk model, the disk
# polynomial's kernel against its loop, one solve's greedy seeding, whole
# cold and warm solves with their work counters), and
# the ingest path's in-package benchmarks: the one-pass number conversion
# against the grammar scan + strconv it replaced (ns/float, per fast
# path), the series decoder (window, registration, snapshot) against the
# encoding/json passes it replaced, one window through the handler to its
# ack (in memory and durable), a restart (server.Open on a snapshot and a
# journal of eight 197-server windows; windows-replayed says it replayed
# them), and a window-sized journal append (which fails if it allocates a
# frame), recovery, and the same journal read through one lent buffer. The
# restart runs once more at -cpu 1: with every core, replay's decode pool;
# with one, the apply loop reading and decoding each record itself. Last,
# CORES_BENCH at -cpu 1 and 2.
bench-hot:
	$(GO) test -bench='LoadState|Coarse' -benchmem -benchtime=10x -run='^$$' .
	$(GO) test -bench='$(SOLVE_BENCH)' -benchmem -benchtime=10x -run='^$$' ./internal/core ./internal/polyfit
	$(GO) test -bench='$(INGEST_BENCH)' -benchmem -benchtime=10x -run='^$$' ./internal/server ./internal/journal
	$(GO) test -cpu 1 -bench='$(REPLAY_COUNT_BENCH)' -benchmem -benchtime=10x -run='^$$' ./internal/server
	$(GO) test -cpu 1,2 -bench='$(CORES_BENCH)' -benchmem -benchtime=10x -run='^$$' ./internal/core ./internal/server

# Event-driven re-consolidation: the watch loop over quiet + 5%-drifted
# observation windows of the 197-server fleet. Tracked metrics:
# trigger-precision and trigger-recall at 1.0 (no trigger on quiet
# windows, trigger within one window of the drift episode), watch-fevals
# well under cadence-fevals (the evaluations a fixed-cadence re-solve
# would spend on the same stream), migrated-frac in the low percent.
bench-drift:
	$(GO) test -bench='DriftWatch' -benchmem -benchtime=1x -run='^$$' .

# Count gate: the whole-solve benchmarks, the wire decoders, an ingest, a
# restart and a journal read once each, their work counters compared with
# the committed BENCH_counts.json. It fails when a count (fevals, priced,
# screened — the sweep candidates the screen's capacity stage did not
# decide — eval-priced, probes, machines, gap; the re-solve matrix's
# infeasible and migrated; the decoders', the ingest's, the
# restart's, the read's and the append's allocs/op and B/op; the decoders'
# slow-numbers and parsed-numbers) is higher than committed
# or missing — a number that repeats, not a time — which is what catches the
# solver redoing work it used to skip. -cpu 1 keeps the -N suffix out of
# the benchmark names, so the file compares across machines. No -benchmem
# on the solver: allocs/op moves with the Go release, its counters do not
# (benchjson -compare gates allocs/op when the baseline carries it). The
# wire decoders count allocs/op, so they run with -benchmem: a decoder
# pointed back at reflection allocates eight times as much, which fails
# here, where a Go release moving the residual's handful of allocations
# means a re-capture. Their slow-numbers is committed as 0: the first
# sample an encoder spells off the conversion's fast paths fails. The
# ingest's and the restart's allocs/op and B/op do not repeat to the last
# digit — a few pool misses and goroutine starts either way — so their
# committed figures are the largest of several runs with a little to spare
# (the ingest's 1 842 allocations and 2 177 816 bytes as 1 900 and
# 2 180 000; the restart's 26 895 and 36 678 513 as 27 000 and
# 36 800 000; the read's 14 and 1 416 as 20 and 4 096): the report line
# says "fell" every run, and a body read into a fresh buffer, a decoder
# back on reflection, a record decoded twice or a journal read whole still
# fails. After a change that lowers a count on purpose, re-capture
# (and put the spare back):
#   cp bench_counts.new.json BENCH_counts.json
bench-counts:
	( $(GO) test -cpu 1 -bench='$(COUNT_BENCH)' -benchtime=1x -run='^$$' ./internal/core ; \
	  $(GO) test -cpu 1 -bench='$(WIRE_COUNT_BENCH)' -benchmem -benchtime=1x -run='^$$' ./internal/server ; \
	  $(GO) test -cpu 1 -bench='$(INGEST_COUNT_BENCH)' -benchmem -benchtime=1x -run='^$$' ./internal/server ; \
	  $(GO) test -cpu 1 -bench='$(REPLAY_COUNT_BENCH)' -benchmem -benchtime=1x -run='^$$' ./internal/server ; \
	  $(GO) test -cpu 1 -bench='$(READ_COUNT_BENCH)' -benchmem -benchtime=1x -run='^$$' ./internal/journal ; \
	  $(GO) test -cpu 1 -bench='$(APPEND_COUNT_BENCH)' -benchmem -benchtime=1x -run='^$$' ./internal/journal ) | $(GO) run ./cmd/benchjson > bench_counts.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_counts.json bench_counts.new.json

# Rolling re-consolidation: warm-started Resolve on the drifted 197-server
# fleet vs a cold solve, plus a pricing sweep under the disk model and its
# saturation envelope. Tracked metrics: warm fevals under cold's,
# migrated-frac in the low percent, and 0 allocs/op on the envelope sweep.
bench-resolve:
	$(GO) test -bench='ResolveWarmVsCold|SweepEnvelope' -benchmem -benchtime=1x -run='^$$' .

# Serve smoke: boot the kairos serve daemon, register a small synthetic
# fleet over HTTP, stream a quiet and a drifted window with curl, and
# assert the drift trigger shows up in /metrics.
serve-smoke:
	./scripts/serve-smoke.sh

# Lint: vet, formatting, and the repo's own analyzer suite (kairoslint,
# per-package analyzers + lockorder: ctxflow/errflow/floatdet/lockguard/
# wirejson one package at a time, and the whole-program call-graph check
# lockorder; see CONTRIBUTING.md). Runs from the module root. `go vet`
# stays before kairoslint: it builds most of the export data kairoslint
# reads its imports from, so kairoslint's `go list -export` finds the
# build cache warm. kairoslint type-checks only this module's packages,
# in parallel. The 30s budget matches CI: if load+analysis blow past it
# the run exits 3, keeping analyzer regressions from hiding inside a slow
# lint step.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" $$out; exit 1; fi
	$(GO) run ./cmd/kairoslint -budget 30s ./...

# FMA check: the solver's incremental pricers must agree with its canonical
# fold bit for bit (LoadState's sums and Contrib with ServerContrib, the sweep
# screen's bounds with the exact fills), and Go may fuse a product and a sum
# into one multiply-add on arm64 — one rounding where amd64 rounds twice — in
# one expression and not in its twin. So every such product in objective.go,
# loadstate.go and coarse.go is written float64(x*y). This cross-compiles the
# core package's test binary for arm64 (offline, from GOROOT), disassembles
# it and fails on any FMADDD, FMSUBD, FNMADDD or FNMSUBD on a line of those
# files.
fma-check:
	GO=$(GO) ./scripts/fma-check.sh

# govulncheck over the module. It installs the tool and fetches its
# vulnerability database, so it needs network access; CI's lint job runs it.
vulncheck:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@latest
	govulncheck ./...

# Size of the tree as ROADMAP.md states it: non-test Go lines per
# top-level package and the //kairoslint:allow waivers in force.
loc:
	./scripts/loc.sh

fmt:
	gofmt -w .

# Local CI mirror. The hosted workflow runs the same gates, with the
# short race pass promoted to `race-full` in a dedicated job (and
# govulncheck, which needs network access to fetch its vuln DB).
ci: build lint fma-check test race race-server crash-matrix fuzz-smoke bench-module serve-smoke bench bench-counts
