package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kairos/bench/gen"
	"kairos/bench/stats"
	"kairos/internal/server"
)

// Sizes of the workloads. The operation counts are what a run of
// fullSeconds does (run.count scales them to --seconds): the issue's
// counts cut to the time the driver has for all its runs, sized so that
// the timed phase ends within fullSeconds on the two-processor sandbox in
// its slowest hour (README.md, "Noise") and takes about half as long in
// its fastest.
const (
	// steadyWindows is how many quiet windows steady-ingest's timed phase
	// sends, spread evenly over its slices.
	steadyWindows = 200
	// driftEpisodes is how many drift episodes drift-storm plays.
	driftEpisodes = 50
	// crashCycles is how many crash cycles crash-recover goes through.
	crashCycles = 8
	// quietVariants is how many distinct quiet windows each collector
	// cycles through.
	quietVariants = 4
	// warmWindows are sent before the timed phase: the first window
	// builds the fleet's watch loop, which later ones do not pay for.
	warmWindows = 3
	// driftStates is how many drift states drift-storm cycles through.
	driftStates = 20
	// episodeWindows is the length of a drift episode: the drifted
	// window and the windows that hold its state.
	episodeWindows = 4
	// coldRounds is how many distinctly perturbed rounds cold-register's
	// suite has; a full-length run registers each once.
	coldRounds = 5
	// steadySlices is how many slices steady-ingest's timed phase has,
	// alternately with one collector and with two.
	steadySlices = 10
	// crashWindows is how many windows a crash-recover cycle journals
	// before the SIGKILL, and crashDriftAt the one (0-based) that drifts,
	// so that the replayed log holds an advance record among its windows.
	crashWindows = 8
	crashDriftAt = 5
)

// stream is the set-up of a streaming workload: its inputs, a daemon
// with the stream fleet registered, and a client aimed at it.
type stream struct {
	r   *run
	in  *gen.Stream
	d   *daemon
	dir string
	c   *client
	// plan is the plan served right after registration.
	plan *server.PlanWire
	// sent numbers the windows posted so far; it stamps the next one.
	sent atomic.Int64
	// warmTriggers counts triggers fired by the warm-up windows, which
	// the daemon's counters include and the quality metrics do not.
	warmTriggers int
}

func (s *stream) teardown() {
	s.c.hc.CloseIdleConnections()
	s.d.kill()
	if s.dir != "" {
		s.r.env.removeDir(s.dir)
	}
}

// setupStream generates the inputs, starts a daemon (durable when
// durable is set), registers the stream fleet and fetches its plan.
func (r *run) setupStream(ctx context.Context, mk func() (*gen.Stream, error), durable bool, extra ...string) (*stream, error) {
	done := r.tr.span("loadgen.encode", 0)
	in, err := mk()
	done()
	if err != nil {
		return nil, err
	}
	s := &stream{r: r, in: in}
	if durable {
		if s.dir, err = r.env.stateDir(); err != nil {
			return nil, err
		}
	}
	if s.d, err = r.env.start(ctx, s.dir, extra...); err != nil {
		return nil, err
	}
	s.c = newClient(s.d.base)
	status, body, err := s.c.do(ctx, http.MethodPost, "/v1/fleets", in.Register)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("register: status %d: %s", status, body)
	}
	var st server.FleetStatus
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err == nil && (st.Workloads != in.Units || !st.Feasible) {
		err = fmt.Errorf("register: status %+v, want %d workloads and a feasible plan", st, in.Units)
	}
	if err == nil {
		if s.plan, err = s.c.plan(ctx, gen.StreamID); err == nil {
			err = checkPlan(s.plan, in.Units)
		}
	}
	if !r.op(err) {
		s.teardown()
		return nil, err
	}
	return s, nil
}

// ack is a decoded window acknowledgement.
type ack struct {
	server.WindowResponse
	stamp int64
	took  time.Duration
}

// post stamps body as the stream's next window, posts it and decodes
// the acknowledgement. Any status but 200 is an error.
func (s *stream) post(ctx context.Context, body *gen.Body) (*ack, error) {
	stamp := gen.StampBase + 300*(s.sent.Add(1)-1)
	if err := body.Stamp(stamp); err != nil {
		return nil, err
	}
	return s.send(ctx, body.Bytes, stamp)
}

// send posts an already stamped window.
func (s *stream) send(ctx context.Context, body []byte, stamp int64) (*ack, error) {
	done := s.r.tr.span("client.post_window", stamp)
	t0 := time.Now()
	status, resp, err := s.c.do(ctx, http.MethodPost, "/v1/fleets/"+gen.StreamID+"/windows", body)
	a := &ack{stamp: stamp, took: time.Since(t0)}
	done()
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("window %d: status %d: %s", stamp, status, resp)
	}
	if err := json.Unmarshal(resp, &a.WindowResponse); err != nil {
		return nil, fmt.Errorf("window %d: decoding ack: %w", stamp, err)
	}
	return a, nil
}

// quietAck is the check of a window that must not trigger.
func quietAck(a *ack, err error) error {
	switch {
	case err != nil:
		return err
	case a.Triggered:
		return fmt.Errorf("window %d: a quiet window triggered a re-solve", a.Window)
	case a.Duplicate:
		return fmt.Errorf("window %d: a new window was answered as a duplicate", a.Window)
	}
	return nil
}

// checkCounters compares the daemon's own window and trigger counters
// (/metrics and the fleet status) with what the generator sent.
func (s *stream) checkCounters(ctx context.Context, windows, triggers int) error {
	const win, trig = `kairos_windows_ingested_total{fleet="` + gen.StreamID + `"}`, `kairos_triggers_total{fleet="` + gen.StreamID + `"}`
	m, err := s.c.scrape(ctx, win, trig)
	if err != nil {
		return err
	}
	if int(m[win]) != windows || int(m[trig]) != triggers {
		return fmt.Errorf("/metrics counts %v windows and %v triggers, the generator sent %d and saw %d", m[win], m[trig], windows, triggers)
	}
	return s.checkStatus(ctx, windows)
}

// bookDaemon adds, in a traced run, what the daemon about to be stopped
// says of itself to the run's per-layer metrics: the solver work behind
// its triggered re-solves and the size of its state directory.
func (s *stream) bookDaemon(ctx context.Context) {
	if s.r.tr == nil {
		return
	}
	const fevals, seconds = `kairos_resolve_fevals_total{fleet="` + gen.StreamID + `"}`, `kairos_resolve_duration_seconds_sum{fleet="` + gen.StreamID + `"}`
	if m, err := s.c.scrape(ctx, fevals, seconds); s.r.op(err) {
		s.r.set("daemon.fevals_total", s.r.values["daemon.fevals_total"].v+m[fevals], 0)
		s.r.set("daemon.resolve_seconds_sum", s.r.values["daemon.resolve_seconds_sum"].v+m[seconds], 0)
	}
	if s.dir != "" {
		s.r.set("daemon.state_dir_mb", max(s.r.values["daemon.state_dir_mb"].v, dirMB(s.dir)), 0)
	}
}

// checkStatus compares the fleet's consumed-window count with `windows`.
func (s *stream) checkStatus(ctx context.Context, windows int) error {
	var st server.FleetStatus
	if err := s.c.getJSON(ctx, "/v1/fleets/"+gen.StreamID, &st); err != nil {
		return err
	}
	if st.Windows != windows {
		return fmt.Errorf("fleet status counts %d windows, %d were acked", st.Windows, windows)
	}
	return nil
}

// steadyIngest: two collectors stream quiet windows at one registered
// fleet on a durable daemon (-fsync always, default snapshot cadence),
// closed loop. The operation is one window: POST sent → ack read.
func (r *run) steadyIngest(ctx context.Context) error {
	release, err := r.durableRef()
	if err != nil {
		return err
	}
	defer release()
	collectors := maxCollectors(2)
	s, err := setups(r, func() (*stream, error) {
		return r.setupStream(ctx, func() (*gen.Stream, error) {
			return gen.Quiet(r.seed, r.quick, quietVariants*collectors)
		}, true)
	})
	if err != nil {
		return err
	}
	defer s.teardown()

	q := &quality{ks: []float64{float64(s.plan.K)}}
	for i := 0; i < warmWindows; i++ {
		if a, err := s.post(ctx, s.in.Windows[i%quietVariants]); !r.op(quietAck(a, err)) {
			return fmt.Errorf("warm-up window failed")
		}
	}

	// The timed phase alternates short slices with one collector and with
	// two. One collector's acks wait for nothing but their own
	// processing: that is the latency reported. Two overlap one window's
	// decoding with the other's turn in the fleet's serial reconcile
	// loop: in a closed loop of n clients that never pause, throughput is
	// n over the time one request takes, so every ack of such a slice is
	// one throughput sample. Alternating, rather than halving the run,
	// lets both see the whole run's mixture of fast and slow stretches of
	// the machine.
	var mu sync.Mutex
	var opMs, rates []float64
	var indexes []int
	triggered := 0
	perSlice := r.count(steadyWindows / steadySlices)
	for slice := 0; slice < steadySlices && ctx.Err() == nil; slice++ {
		n := 1 + slice%2*(collectors-1)
		var left atomic.Int64 // windows of this slice not yet taken by a collector
		left.Store(int64(perSlice))
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(mine []*gen.Body) {
				defer wg.Done()
				for i := 0; left.Add(-1) >= 0 && ctx.Err() == nil; i++ {
					a, err := s.post(ctx, mine[(slice+i)%len(mine)])
					mu.Lock()
					if a != nil {
						if slice%2 == 0 {
							opMs = append(opMs, ms(a.took))
						} else {
							rates = append(rates, float64(n)/a.took.Seconds())
						}
						indexes = append(indexes, a.Window)
						if a.Triggered {
							triggered++
						}
					}
					mu.Unlock()
					r.op(quietAck(a, err))
					if n == 1 {
						r.sampleRef() // the lone collector's daemon is idle now
					}
				}
			}(s.in.Windows[c*quietVariants : (c+1)*quietVariants])
		}
		wg.Wait()
	}

	// Every ack carries the index its window was consumed as; together
	// they must be exactly the windows after the warm-up, each once.
	sort.Ints(indexes)
	var idxErr error
	for i, w := range indexes {
		if w != warmWindows+i {
			idxErr = fmt.Errorf("acked window indexes are not %d..%d each once (position %d holds %d)", warmWindows, warmWindows+len(indexes)-1, i, w)
			break
		}
	}
	r.op(idxErr)
	r.op(s.checkCounters(ctx, int(s.sent.Load()), triggered))
	s.bookDaemon(ctx)
	final, err := s.c.plan(ctx, gen.StreamID)
	if err == nil {
		if err = checkPlan(final, s.in.Units); err == nil && !samePlacement(final, s.plan) {
			err = fmt.Errorf("the served plan changed on a quiet stream")
		}
		q.ks = append(q.ks, float64(final.K))
	}
	r.op(err)

	q.triggers = triggered
	r.setOps(opMs, rates)
	r.setQuality(q)
	r.note("op = one quiet window, POST sent to ack read, 1 collector; ops_per_norm_s = windows acked per second with %d collectors (collectors / the median ack under that load); closed loop", collectors)
	r.note("state directory %.1f MB after %d windows", dirMB(s.dir), s.sent.Load())
	return nil
}

// episode posts one drift episode: the drifted window, the plan it must
// produce, and the windows that hold the state. It returns the time from
// sending the drifted window to having read the advanced plan (zero when
// the window did not trigger).
func (s *stream) episode(ctx context.Context, body *gen.Body, holds int, q *quality) time.Duration {
	r := s.r
	q.episodes++
	t0 := time.Now()
	done := r.tr.span("client.trigger_to_plan", int64(q.episodes))
	a, err := s.post(ctx, body)
	var toPlan time.Duration
	if err == nil && a.Triggered {
		q.hits++
		toPlan, err = s.advanced(ctx, a, t0, q, true)
	}
	done()
	r.op(err)
	for w := 1; w <= holds && ctx.Err() == nil; w++ {
		a, err := s.post(ctx, body)
		if err == nil && a.Triggered {
			// A late trigger: not an error, but a precision miss unless
			// it is the episode's second window.
			_, err = s.advanced(ctx, a, time.Now(), q, w == 1)
		}
		r.op(err)
	}
	return toPlan
}

// advanced fetches and checks the plan a triggered window produced, and
// books its quality.
func (s *stream) advanced(ctx context.Context, a *ack, t0 time.Time, q *quality, early bool) (time.Duration, error) {
	q.triggers++
	if early {
		q.early++
	}
	p, err := s.c.plan(ctx, gen.StreamID)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if a.Event == nil {
		return 0, fmt.Errorf("window %d triggered without an event", a.Window)
	}
	if err := checkPlan(p, s.in.Units); err != nil {
		return 0, fmt.Errorf("plan after the trigger at window %d: %w", a.Window, err)
	}
	if p.K != a.Event.K || p.Migrated != a.Event.Migrated {
		return 0, fmt.Errorf("served plan (K=%d, migrated=%d) is not the one window %d's event announced (K=%d, migrated=%d)",
			p.K, p.Migrated, a.Window, a.Event.K, a.Event.Migrated)
	}
	s.plan = p
	q.ks = append(q.ks, float64(p.K))
	q.migrated += p.Migrated
	q.resolved += s.in.Units
	return took, nil
}

// warm posts the windows that bring a drift stream to the state before
// its first episode and returns the last one's acknowledgement. They may
// or may not trigger; neither is checked.
func (s *stream) warm(ctx context.Context, body *gen.Body) (*ack, error) {
	var last *ack
	for i := 0; i < warmWindows; i++ {
		a, err := s.post(ctx, body)
		if !s.r.op(err) {
			return nil, fmt.Errorf("warm-up window failed: %w", err)
		}
		if a.Triggered {
			s.warmTriggers++
			if s.plan, err = s.c.plan(ctx, gen.StreamID); err != nil {
				return nil, err
			}
		}
		last = a
	}
	return last, nil
}

// driftStorm: one collector plays drift episodes at an in-memory daemon.
// The operation is one trigger: drifted window sent → advanced plan read.
func (r *run) driftStorm(ctx context.Context) error {
	s, err := setups(r, func() (*stream, error) {
		return r.setupStream(ctx, func() (*gen.Stream, error) { return gen.Drift(r.seed, r.quick, driftStates) }, false)
	})
	if err != nil {
		return err
	}
	defer s.teardown()
	if _, err := s.warm(ctx, s.in.Windows[driftStates-1]); err != nil {
		return err
	}

	q := &quality{ks: []float64{float64(s.plan.K)}}
	var opMs, rates []float64
	start := time.Now()
	for e, n := 0, r.count(driftEpisodes); e < n && ctx.Err() == nil; e++ {
		t0 := time.Now()
		if took := s.episode(ctx, s.in.Windows[e%driftStates], episodeWindows-1, q); took > 0 {
			opMs = append(opMs, ms(took))
		}
		rates = append(rates, 1/time.Since(t0).Seconds())
		r.sampleRef()
	}
	wall := time.Since(start)
	r.op(s.checkCounters(ctx, int(s.sent.Load()), q.triggers+s.warmTriggers))
	s.bookDaemon(ctx)

	r.setOps(opMs, rates)
	r.setQuality(q)
	r.note("op = one drift trigger, drifted window sent to advanced plan read; 1 collector, closed loop; ops_per_norm_s = episodes per second at the median episode")
	r.note("%d episodes of %d windows (%.1f windows/s), %d triggers, %d units migrated", q.episodes, episodeWindows,
		float64(s.sent.Load()-warmWindows)/wall.Seconds(), q.triggers, q.migrated)
	return nil
}

// coldSetup is the set-up of cold-register: the encoded rounds and an
// empty in-memory daemon.
type coldSetup struct {
	rounds [][]gen.ColdCase
	d      *daemon
	c      *client
}

func (s *coldSetup) teardown() {
	s.c.hc.CloseIdleConnections()
	s.d.kill()
}

// coldRegister: one client registers, reads and deregisters a round of
// fleets, each solved cold by a different path of the solver. The
// operation is one round.
func (r *run) coldRegister(ctx context.Context) error {
	s, err := setups(r, func() (*coldSetup, error) {
		done := r.tr.span("loadgen.encode", 0)
		rounds, err := gen.Cold(r.seed, r.quick, coldRounds)
		done()
		if err != nil {
			return nil, err
		}
		d, err := r.env.start(ctx, "")
		if err != nil {
			return nil, err
		}
		return &coldSetup{rounds: rounds, d: d, c: newClient(d.base)}, nil
	})
	if err != nil {
		return err
	}
	defer s.teardown()

	q := &quality{}
	caseMs := map[string][]float64{}
	caseK := map[string][]float64{}
	rounds := r.count(coldRounds)
	for round := 0; round < rounds && ctx.Err() == nil; round++ {
		for _, cs := range s.rounds[round%coldRounds] {
			c0 := time.Now()
			k, err := s.registerCase(ctx, r, cs)
			if r.op(err) {
				q.ks = append(q.ks, float64(k))
				caseK[cs.ID] = append(caseK[cs.ID], float64(k))
				caseMs[cs.ID] = append(caseMs[cs.ID], ms(time.Since(c0)))
			}
			r.sampleRef()
		}
	}

	// A round lasts seconds, so a run has only a handful, and each one
	// straddles fast and slow stretches of the machine. The round is
	// therefore reported as the sum of its cases' own medians (and p75s):
	// a case is short enough for most of its samples to fall within one
	// stretch, and its median then sits with the majority.
	var p50, p75 float64
	for _, cs := range s.rounds[0] {
		p50 += stats.Median(caseMs[cs.ID])
		p75 += stats.Percentile(caseMs[cs.ID], 75)
	}
	r.setTimings(p50, p75, 75, 1e3/p50, rounds, rounds)
	r.setQuality(q)
	r.note("op = one round: register, GET plan and DELETE %d fleets, as the sum of the cases' medians (tail: the sum of their p75s); ops_per_norm_s = rounds per second at that median; 1 client, closed loop", len(s.rounds[0]))
	for _, cs := range s.rounds[0] {
		r.note("%-22s median %8.1f ms  K %v", cs.ID, stats.Median(caseMs[cs.ID]), caseK[cs.ID])
	}
	return nil
}

// registerCase registers one fleet, checks the plan it is served and
// deregisters it. It returns the plan's machine count.
func (s *coldSetup) registerCase(ctx context.Context, r *run, cs gen.ColdCase) (int, error) {
	done := r.tr.span("client.register_case", 0)
	defer done()
	status, body, err := s.c.do(ctx, http.MethodPost, "/v1/fleets", cs.Body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusCreated {
		return 0, fmt.Errorf("register %s: status %d: %s", cs.ID, status, body)
	}
	var st server.FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("register %s: decoding status: %w", cs.ID, err)
	}
	p, err := s.c.plan(ctx, cs.ID)
	if err != nil {
		return 0, err
	}
	if err := checkPlan(p, cs.Units); err != nil {
		return 0, fmt.Errorf("%s: %w", cs.ID, err)
	}
	if st.Workloads != cs.Units || st.K != p.K {
		return 0, fmt.Errorf("%s: registration answered %+v, the plan has K=%d for %d units", cs.ID, st, p.K, cs.Units)
	}
	status, body, err = s.c.do(ctx, http.MethodDelete, "/v1/fleets/"+cs.ID, nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusNoContent {
		return 0, fmt.Errorf("deregister %s: status %d: %s", cs.ID, status, body)
	}
	return p.K, nil
}

// restart starts a daemon on the stream's state directory, waits until
// it serves the fleet's plan and checks what it recovered: the plan the
// crashed daemon last served, and every acked window. It returns the
// time from spawning the process to having read the first 200.
func (s *stream) restart(ctx context.Context, last *ack, extra ...string) (time.Duration, error) {
	d, err := s.r.env.spawn(s.dir, extra...)
	if err != nil {
		return 0, err
	}
	s.d = d
	s.c.retarget(d.base)
	done := s.r.tr.span("client.restart_ready", last.stamp)
	err = d.waitFor(ctx, "/v1/fleets/"+gen.StreamID+"/plan")
	ready := time.Since(d.spawned)
	done()
	if err != nil {
		return 0, err
	}
	p, err := s.c.plan(ctx, gen.StreamID)
	if err != nil {
		return 0, err
	}
	if !samePlacement(p, s.plan) {
		return 0, fmt.Errorf("restart served K=%d, the last plan before it had K=%d: placements differ", p.K, s.plan.K)
	}
	if err := s.checkStatus(ctx, int(s.sent.Load())); err != nil {
		return 0, err
	}
	// A collector that retries its last window across the restart must
	// get the original acknowledgement back, not a second apply.
	body := s.in.Windows[0]
	if err := body.Stamp(last.stamp); err != nil {
		return 0, err
	}
	a, err := s.send(ctx, body.Bytes, last.stamp)
	if err != nil {
		return 0, err
	}
	if !a.Duplicate || a.Window != last.Window {
		return 0, fmt.Errorf("resending window %d after the restart answered %+v, want duplicate of window %d", last.stamp, a.WindowResponse, last.Window)
	}
	return ready, nil
}

// crashRecover: a durable daemon journals a short stream with one drift
// trigger in it, is killed, recovers from snapshot + journal, is shut
// down gracefully and recovers from the snapshot alone. The operation is
// the recovery after the kill: process spawned → plan served.
func (r *run) crashRecover(ctx context.Context) error {
	release, err := r.durableRef()
	if err != nil {
		return err
	}
	defer release()
	noSnap := []string{"-snapshot-every", "1000000"}
	s, err := setups(r, func() (*stream, error) {
		return r.setupStream(ctx, func() (*gen.Stream, error) { return gen.Drift(r.seed, r.quick, 2) }, true, noSnap...)
	})
	if err != nil {
		return err
	}
	defer func() { s.teardown() }()
	// Before the clock starts, a graceful restart folds the registration
	// and the warm-up into a snapshot, so that the first cycle recovers
	// from what every later one does: a snapshot and one cycle's journal.
	last, err := s.warm(ctx, s.in.Windows[1])
	if err != nil {
		return err
	}
	if err := s.d.term(); !r.op(err) {
		return fmt.Errorf("graceful shutdown after the warm-up failed: %w", err)
	}
	if _, err := s.restart(ctx, last, noSnap...); !r.op(err) {
		return fmt.Errorf("restart after the warm-up failed: %w", err)
	}

	q := &quality{ks: []float64{float64(s.plan.K)}}
	var opMs, rates, graceful, toPlan []float64
	// snapshotAt is how many windows the last graceful shutdown's
	// snapshot covers; recovery replays the ones journaled after it.
	snapshotAt := int(s.sent.Load())
	for c, n := 0, r.count(crashCycles); c < n && ctx.Err() == nil; c++ {
		t0 := time.Now()
		held, next := s.in.Windows[(c+1)%2], s.in.Windows[c%2]
		for w := 0; w < crashDriftAt; w++ {
			a, err := s.post(ctx, held)
			if !r.op(quietAck(a, err)) {
				return fmt.Errorf("cycle %d: a window before the crash failed", c)
			}
			last = a
			r.sampleRef()
		}
		if took := s.episode(ctx, next, 0, q); took > 0 {
			toPlan = append(toPlan, ms(took))
		}
		for w := crashDriftAt + 1; w < crashWindows; w++ {
			a, err := s.post(ctx, next)
			if !r.op(quietAck(a, err)) {
				return fmt.Errorf("cycle %d: a window before the crash failed", c)
			}
			last = a
		}

		s.bookDaemon(ctx)
		s.d.kill()
		ready, err := s.restart(ctx, last, noSnap...)
		if !r.op(err) {
			return fmt.Errorf("cycle %d: recovery after SIGKILL failed: %w", c, err)
		}
		opMs = append(opMs, ms(ready))
		if !r.op(s.checkReplayed(ctx, int(s.sent.Load())-snapshotAt)) {
			return fmt.Errorf("cycle %d: recovery replayed the wrong records", c)
		}

		if err := s.d.term(); !r.op(err) {
			return fmt.Errorf("cycle %d: graceful shutdown failed: %w", c, err)
		}
		ready, err = s.restart(ctx, last, noSnap...)
		if !r.op(err) {
			return fmt.Errorf("cycle %d: recovery after SIGTERM failed: %w", c, err)
		}
		graceful = append(graceful, ms(ready))
		snapshotAt = int(s.sent.Load())
		if !r.op(s.checkReplayed(ctx, 0)) {
			return fmt.Errorf("cycle %d: the graceful snapshot left records to replay", c)
		}
		rates = append(rates, 1/time.Since(t0).Seconds())
	}

	r.setOps(opMs, rates)
	r.setQuality(q)
	r.note("op = one crash recovery, process spawned after SIGKILL to plan served (snapshot + %d window records + 1 advance); ops_per_norm_s = crash cycles per second at the median cycle", crashWindows)
	r.note("restart after SIGTERM (snapshot only): median %.1f ms, n=%d", stats.Median(graceful), len(graceful))
	r.note("durable trigger to plan: median %.1f ms, n=%d", stats.Median(toPlan), len(toPlan))
	r.note("state directory %.1f MB at the end", dirMB(s.dir))
	return nil
}

// checkReplayed compares what the restarted daemon says it replayed
// with the windows journaled since the last snapshot.
func (s *stream) checkReplayed(ctx context.Context, windows int) error {
	const replayed = "kairos_recovery_windows_replayed"
	m, err := s.c.scrape(ctx, replayed)
	if err != nil {
		return err
	}
	if int(m[replayed]) != windows {
		return fmt.Errorf("recovery replayed %v window records, %d were journaled since the snapshot", m[replayed], windows)
	}
	return nil
}
