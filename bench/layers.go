package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"syscall"
	"time"

	"kairos"
	"kairos/bench/gen"
	"kairos/bench/stats"
	"kairos/internal/core"
	"kairos/internal/server"
)

// Per-layer metrics, printed by a traced run. A timing is the median
// over the traced calls; a metric whose layer the workload does not
// exercise reads 0 with n=0 — that the journal is absent from
// drift-storm is itself a result. README.md says which end-to-end
// metric each is expected to move.
var perLayer = []metricDef{
	{"wire.window_decode_ms", "ms"},
	{"wire.window_bytes", "bytes"},
	{"wire.to_workloads_ms", "ms"},
	{"wire.record_encode_ms", "ms"},
	{"wire.record_decode_ms", "ms"},
	{"wire.register_decode_ms", "ms"},
	{"journal.append_always_ms", "ms"},
	{"journal.append_none_ms", "ms"},
	{"journal.append_mb_per_s", "MB/s"},
	{"journal.appends", "count"},
	{"journal.syncs", "count"},
	{"journal.snapshot_ms", "ms"},
	{"journal.snapshots", "count"},
	{"journal.recover_ms_per_record", "ms"},
	{"journal.recover_mb_per_s", "MB/s"},
	{"drift.observe_ms", "ms"},
	{"drift.windows", "count"},
	{"drift.triggers", "count"},
	{"predict.forecast_ms", "ms"},
	{"core.resolve_warm_ms", "ms"},
	{"core.resolve_warm_fevals", "count"},
	{"core.resolve_warm_k", "machines"},
	{"core.resolve_migrated", "count"},
	{"core.solve_cold_ms", "ms"},
	{"core.solve_cold_fevals", "count"},
	{"core.solve_cold_k", "machines"},
	{"core.solve_direct_ms", "ms"},
	{"core.solve_sharded4_ms", "ms"},
	{"core.solve_sharded4_k", "machines"},
	{"core.solve_disk_ms", "ms"},
	{"core.evaluator_build_ms", "ms"},
	{"core.eval_us", "us"},
	{"core.price_move_ns", "ns"},
	{"core.bound_move_ns", "ns"},
	{"core.sweep_screened_ms", "ms"},
	{"core.sweep_unscreened_ms", "ms"},
	{"core.screen_pruned_frac", "fraction"},
	{"greedy.multires_ms", "ms"},
	{"direct.minimize_ms", "ms"},
	{"model.predict_write_us", "us"},
	{"kairos.consolidate_ms", "ms"},
	{"kairos.observe_quiet_ms", "ms"},
	{"kairos.observe_trigger_ms", "ms"},
	{"kairos.observe_self_ms", "ms"},
	{"kairos.checkpoint_ms", "ms"},
	{"kairos.restore_ms", "ms"},
	{"server.window_handle_ms", "ms"},
	{"server.window_handle_durable_ms", "ms"},
	{"server.trigger_handle_ms", "ms"},
	{"server.register_handle_ms", "ms"},
	{"server.plan_get_ms", "ms"},
	{"server.metrics_get_ms", "ms"},
	{"server.open_snapshot_ms", "ms"},
	{"server.open_replay_ms_per_window", "ms"},
	{"daemon.cpu_s", "s"},
	{"daemon.peak_rss_mb", "MB"},
	{"daemon.state_dir_mb", "MB"},
	{"daemon.fevals_total", "count"},
	{"daemon.resolve_seconds_sum", "s"},
	{"daemon.http_overhead_ms", "ms"},
	{"loadgen.cpu_s", "s"},
	{"loadgen.encode_ms", "ms"},
	{"trace.op_p50_ms", "ms"},
	{"trace.op_tail_ms", "ms"},
	{"trace.speed_factor", "ratio"},
	{"trace.spans", "count"},
	{"share.wire", "fraction"},
	{"share.journal", "fraction"},
	{"share.drift", "fraction"},
	{"share.predict", "fraction"},
	{"share.core", "fraction"},
	{"share.kairos", "fraction"},
	{"share.server", "fraction"},
}

// shareLayers are the layers the mirrored pipeline's time is split over.
var shareLayers = []string{"wire", "journal", "drift", "predict", "core", "kairos", "server"}

// probe collects what the traced run measures in-process.
type probe struct {
	r  *run
	tr *tracer
	// samples are per-call timings by metric name; the report is their
	// median.
	samples map[string][]float64
	// layerMs is how much of the mirrored requests' time each layer
	// took, for the shares.
	layerMs map[string]float64
	// stop is when the in-process part should stop starting new work.
	stop time.Time
}

// timed runs f as a span named after the metric (without its unit
// suffix) under parent and books the duration as a sample of it.
func (p *probe) timed(parent int, name string, request int64, f func()) float64 {
	ms := p.tr.timed(parent, name, request, f)
	p.samples[name+"_ms"] = append(p.samples[name+"_ms"], ms)
	return ms
}

// flush turns the samples into metrics.
func (p *probe) flush() {
	for name, v := range p.samples {
		p.r.set(name, stats.Median(v), len(v))
	}
	var total float64
	for _, l := range shareLayers {
		total += p.layerMs[l]
	}
	if total > 0 {
		for _, l := range shareLayers {
			p.r.set("share."+l, p.layerMs[l]/total, 0)
		}
	}
}

// more reports whether the in-process part has budget for another
// repetition, having done `done` already; it always allows `least`.
func (p *probe) more(done, least int) bool {
	return done < least || time.Now().Before(p.stop)
}

// selfCPU is the CPU time this process has used so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// traced is the traced run of one workload. First the workload runs
// against the daemon as in an untraced run, for part of the budget and
// with spans around the client's calls: that gives the daemon's own
// resource use and, set against the untraced run's raw op p50, the cost
// of tracing. Per-layer timings are raw milliseconds throughout. Then the same seeded inputs are replayed in-process
// through the mirrored pipeline, one span per call into a layer.
func (r *run) traced(ctx context.Context) error {
	budget := r.seconds
	r.seconds = budget * 0.4
	r.env.usage() // forget the daemons of earlier runs of this invocation
	cpu0 := selfCPU()
	err := r.againstDaemon(ctx)
	r.seconds = budget
	if err != nil {
		return err
	}
	opP50 := r.values["raw.op_p50_ms"]
	r.set("trace.op_p50_ms", opP50.v, opP50.n)
	r.set("trace.op_tail_ms", r.values["raw.op_tail_ms"].v, r.values["raw.op_tail_ms"].n)
	r.set("trace.speed_factor", r.values["raw.speed_factor"].v, r.values["raw.speed_factor"].n)
	r.set("loadgen.cpu_s", selfCPU()-cpu0, 0)
	r.set("loadgen.encode_ms", r.tr.totalMs("loadgen.encode"), 1)
	cpu, rss := r.env.usage()
	r.set("daemon.cpu_s", cpu, 0)
	r.set("daemon.peak_rss_mb", rss, 0)

	p := &probe{r: r, tr: r.tr, samples: map[string][]float64{}, layerMs: map[string]float64{},
		stop: time.Now().Add(time.Duration(budget * 0.6 * float64(time.Second)))}
	var inProcess float64
	switch r.workload {
	case "steady-ingest":
		inProcess, err = p.steady(ctx)
	case "drift-storm":
		inProcess, err = p.drift(ctx)
	case "cold-register":
		inProcess, err = p.cold(ctx)
	case "crash-recover":
		inProcess, err = p.crash(ctx)
	}
	if err != nil {
		return fmt.Errorf("in-process replay: %w", err)
	}
	p.flush()
	// What the daemon adds to the operation beyond the handler (or, for
	// recovery, server.Open) run in this process: sockets, the HTTP
	// server, process start-up, and waiting behind the other collector.
	r.set("daemon.http_overhead_ms", opP50.v-inProcess, opP50.n)
	r.set("trace.spans", float64(r.tr.count()), 0)
	r.note("self time of the pipeline.* spans, the replay's own overhead between the calls it times: %.2f ms in all", r.tr.selfTotalMs("pipeline."))
	return nil
}

// handler is an in-process control plane driven through
// Handler().ServeHTTP: the server layer without sockets or a second
// process.
type handler struct {
	srv *server.Server
	h   http.Handler
}

func openHandler(cfg server.Config) (*handler, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &handler{srv: srv, h: srv.Handler()}, nil
}

// withHandler opens an in-process control plane, runs f against it and
// stops it (see stopAfter).
func withHandler(cfg server.Config, graceful bool, f func(*handler) error) error {
	h, err := openHandler(cfg)
	if err != nil {
		return err
	}
	return h.stopAfter(graceful, f)
}

// stopAfter runs f against the control plane and then stops it:
// gracefully (Close, which snapshots the journal) or the way a crash
// would (Kill, which leaves a state directory as f left it). f's error
// wins over the stop's.
func (h *handler) stopAfter(graceful bool, f func(*handler) error) error {
	err := f(h)
	stop := h.srv.Kill
	if graceful {
		stop = h.srv.Close
	}
	if serr := stop(); err == nil {
		err = serr
	}
	return err
}

// serve runs one request through the handler.
func (h *handler) serve(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// register registers body's fleet and fails on anything but 201.
func (h *handler) register(body []byte) error {
	if code, resp := h.serve(http.MethodPost, "/v1/fleets", body); code != http.StatusCreated {
		return fmt.Errorf("in-process register: status %d: %s", code, resp)
	}
	return nil
}

// window posts one window and returns its decoded acknowledgement.
func (h *handler) window(body []byte) (*server.WindowResponse, error) {
	code, resp := h.serve(http.MethodPost, "/v1/fleets/"+gen.StreamID+"/windows", body)
	if code != http.StatusOK {
		return nil, fmt.Errorf("in-process window: status %d: %s", code, resp)
	}
	var a server.WindowResponse
	if err := json.Unmarshal(resp, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// shardedRegister rewrites a stream registration to solve its initial
// plan with four shards, which is several times cheaper than the default
// solve. It serves the handler probes that time quiet windows and
// recovery, which do not depend on how the initial plan was found; a
// probe that re-solves registers the fleet as the daemon's was.
func shardedRegister(body []byte) ([]byte, error) {
	var req server.RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	req.Options.Shards = 4
	return json.Marshal(req)
}

// stamper hands out the start_unix values of the in-process replays,
// far above the ones the daemon part of the run used.
type stamper struct{ next int64 }

func (s *stamper) stamp(b *gen.Body) (int64, error) {
	s.next++
	v := gen.StampBase + 1_000_000_000 + 300*s.next
	return v, b.Stamp(v)
}

// registerMirror decodes a registration and solves its initial plan
// through the mirrored steps, as spans under parent. It returns the
// session and the time the whole request took.
func (p *probe) registerMirror(ctx context.Context, parent int, body []byte, request int64) (*session, float64, error) {
	id := p.tr.begin(parent, "pipeline.register", request)
	var req server.RegisterRequest
	var err error
	dec := p.timed(id, "wire.register_decode", request, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return nil, 0, err
	}
	var s *session
	conv := p.timed(id, "wire.to_workloads", request, func() { s, err = newSession(req) })
	if err != nil {
		return nil, 0, err
	}
	solve := p.timed(id, "kairos.consolidate", request, func() { _, err = s.fleet.Consolidate(ctx) })
	if err != nil {
		return nil, 0, err
	}
	total := ms(p.tr.end(id))
	p.layerMs["wire"] += dec + conv
	p.layerMs["kairos"] += solve // the caller moves the solver's part to core
	return s, total, nil
}

// pricers times the solver's inner loops on the session's problem at
// the plan's own assignment: building the evaluator, one canonical
// evaluation, one exact and one coarse-bound move pricing, and a full
// move sweep with the coarse screen on and off.
func (p *probe) pricers(parent int, s *session, plan *kairos.Plan) error {
	var ev *core.Evaluator
	var err error
	for i := 0; i < 3; i++ {
		p.timed(parent, "core.evaluator_build", 0, func() { ev, err = core.NewEvaluator(s.problem()) })
		if err != nil {
			return err
		}
	}
	K, assign := plan.K, plan.Assign
	const evals = 200
	ms := p.tr.timed(parent, "core.eval", 0, func() {
		for i := 0; i < evals; i++ {
			sink, _ = ev.Eval(assign, K)
		}
	})
	p.r.set("core.eval_us", ms*1e3/evals, evals)

	ls := core.NewLoadState(ev, assign, K)
	nU := ls.NumUnits()
	const moves = 20000
	other := func(i int) (u, j int) {
		u = i % nU
		return u, (ls.Assign(u) + 1 + i%(K-1)) % K
	}
	if K > 1 {
		ms = p.tr.timed(parent, "core.price_move", 0, func() {
			for i := 0; i < moves; i++ {
				u, j := other(i)
				sink += ls.PriceAdd(u, j) - ls.PriceRemove(u)
			}
		})
		p.r.set("core.price_move_ns", ms*1e6/moves, moves)
		ms = p.tr.timed(parent, "core.bound_move", 0, func() {
			for i := 0; i < moves; i++ {
				u, j := other(i)
				sink += ls.ScreenAdd(u, j)
			}
		})
		p.r.set("core.bound_move_ns", ms*1e6/moves, moves)
	}
	var screened, priced int
	for i := 0; i < 5; i++ {
		p.timed(parent, "core.sweep_unscreened", 0, func() { sweepMoves(ls, K, false) })
		p.timed(parent, "core.sweep_screened", 0, func() { screened, priced = sweepMoves(ls, K, true) })
	}
	if screened > 0 {
		p.r.set("core.screen_pruned_frac", float64(screened-priced)/float64(screened), screened)
	}
	return nil
}

// sink keeps the priced values alive, so the compiler cannot drop the
// calls that produce them.
var sink float64

// sweepMoves prices one best-improvement move sweep the way the solver's
// bestMove does, without applying any move, optionally screening each
// candidate against the coarse lower bound first. It returns how many
// candidates it considered and how many it priced exactly.
func sweepMoves(ls *core.LoadState, K int, screen bool) (considered, priced int) {
	for u := 0; u < ls.NumUnits(); u++ {
		from := ls.Assign(u)
		cFrom := ls.PriceRemove(u)
		best := -1e-9
		for j := 0; j < K; j++ {
			if j == from {
				continue
			}
			considered++
			if screen {
				if lo := ls.ScreenAdd(u, j); (cFrom+lo)-(ls.Contrib(from)+ls.Contrib(j)) >= best {
					continue
				}
			}
			priced++
			delta := (cFrom + ls.PriceAdd(u, j)) - (ls.Contrib(from) + ls.Contrib(j))
			if delta < best {
				best = delta
			}
			sink += delta
		}
	}
	return considered, priced
}
