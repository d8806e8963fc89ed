package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"kairos"
	"kairos/bench/gen"
	"kairos/bench/stats"
	"kairos/internal/core"
	"kairos/internal/drift"
	"kairos/internal/server"
)

// drift replays drift episodes through the in-memory ingest pipeline
// (decode → convert → observe), with the detector, the forecast and the
// warm re-solve standalone on the same inputs, then prices the solver's
// inner loops on the fleet's problem, then plays episodes through the
// real handler.
func (p *probe) drift(ctx context.Context) (float64, error) {
	in, err := gen.Drift(p.r.seed, p.r.quick, driftStates)
	if err != nil {
		return 0, err
	}
	root := p.tr.begin(noParent, "mirror.drift-storm", 0)
	defer p.tr.end(root)
	setup := p.tr.begin(root, "setup", 0)
	s, _, err := p.registerMirror(ctx, setup, in.Register, 0)
	if err != nil {
		return 0, err
	}
	det, err := drift.NewDetector(s.driftCfg, driftSamples(s.wls))
	if err != nil {
		return 0, err
	}
	p.tr.end(setup)

	var st stamper
	// history is the mirror of the watch loop's forecast history (two
	// windows, drift.Config's default).
	var history [][]kairos.Workload
	windows, triggers := 0, 0
	// observe replays one window and returns whether it triggered.
	observe := func(body *gen.Body) (bool, error) {
		stamp, err := st.stamp(body)
		if err != nil {
			return false, err
		}
		req := p.tr.begin(root, "pipeline.window", stamp)
		var wr server.WindowRequest
		dec := p.timed(req, "wire.window_decode", stamp, func() { err = json.Unmarshal(body.Bytes, &wr) })
		if err != nil {
			return false, err
		}
		var window []kairos.Workload
		conv := p.timed(req, "wire.to_workloads", stamp, func() { window, err = toWorkloads(wr.Workloads, false) })
		if err != nil {
			return false, err
		}
		inc := s.fleet.Incumbent()
		var ev *kairos.ReconsolidationEvent
		t0 := time.Now()
		obsID := p.tr.begin(req, "kairos.observe", stamp)
		ev, err = s.fleet.Observe(ctx, window)
		p.tr.end(obsID)
		obs := ms(time.Since(t0))
		p.tr.end(req)
		if err != nil {
			return false, err
		}
		windows++

		alone := p.tr.begin(root, "standalone", stamp)
		defer p.tr.end(alone)
		var trig *drift.Trigger
		d := p.timed(alone, "drift.observe", stamp, func() { trig, err = det.Observe(driftSamples(window)) })
		if err != nil {
			return false, err
		}
		history = append(history, window)
		if len(history) > 2 {
			history = history[len(history)-2:]
		}
		p.r.set("wire.window_bytes", float64(len(body.Bytes)), 0)
		p.layerMs["wire"] += dec + conv
		p.layerMs["drift"] += d
		if ev == nil {
			if trig != nil {
				return false, fmt.Errorf("the standalone detector fired on window %d and the session's did not", windows-1)
			}
			p.samples["kairos.observe_quiet_ms"] = append(p.samples["kairos.observe_quiet_ms"], obs)
			p.layerMs["kairos"] += max(0, obs-d)
			return false, nil
		}
		if trig == nil {
			return false, fmt.Errorf("the session's detector fired on window %d and the standalone one did not", windows-1)
		}
		triggers++
		p.samples["kairos.observe_trigger_ms"] = append(p.samples["kairos.observe_trigger_ms"], obs)
		// The re-solve's constituents on the inputs the session used: the
		// forecast over the history, then the warm solve from the
		// incumbent the session had before the trigger.
		var fc []kairos.Workload
		f := p.timed(alone, "predict.forecast", stamp, func() { fc, err = forecast(history) })
		if err != nil {
			return false, err
		}
		var sol *core.Solution
		c := p.timed(alone, "core.resolve_warm", stamp, func() {
			sol, err = core.Resolve(ctx, &core.Problem{Workloads: fc, Machines: s.machines}, inc, s.resolve)
		})
		if err != nil {
			return false, err
		}
		if sol.K != ev.Plan.K || sol.Migrated != ev.Plan.Migrated {
			return false, fmt.Errorf("the standalone re-solve (K=%d, %d migrated) differs from the session's (K=%d, %d migrated)",
				sol.K, sol.Migrated, ev.Plan.K, ev.Plan.Migrated)
		}
		// The session rebased its detector on the forecast; so must the
		// standalone one, to keep firing on the same windows.
		if err := det.SetBaseline(driftSamples(fc)); err != nil {
			return false, err
		}
		p.samples["core.resolve_warm_fevals"] = append(p.samples["core.resolve_warm_fevals"], float64(sol.Fevals))
		p.samples["core.resolve_warm_k"] = append(p.samples["core.resolve_warm_k"], float64(sol.K))
		p.samples["core.resolve_migrated"] = append(p.samples["core.resolve_migrated"], float64(sol.Migrated))
		p.samples["kairos.observe_self_ms"] = append(p.samples["kairos.observe_self_ms"], obs-d-f-c)
		p.layerMs["predict"] += f
		p.layerMs["core"] += c
		p.layerMs["kairos"] += max(0, obs-d-f-c)
		return true, nil
	}
	for i := 0; i < warmWindows; i++ {
		if _, err := observe(in.Windows[driftStates-1]); err != nil {
			return 0, err
		}
	}
	// The set-up's and the warm-up's timings and shares are not the
	// workload's.
	p.samples, p.layerMs = map[string][]float64{}, map[string]float64{}
	for e := 0; p.more(e, 4) && e < 12 && ctx.Err() == nil; e++ {
		for w := 0; w < episodeWindows; w++ {
			fired, err := observe(in.Windows[e%driftStates])
			if err != nil {
				return 0, err
			}
			if fired != (w == 0) {
				return 0, fmt.Errorf("in-process episode %d window %d: triggered=%v", e, w, fired)
			}
		}
	}
	p.r.set("drift.windows", float64(windows), 0)
	p.r.set("drift.triggers", float64(triggers), 0)

	if err := p.pricers(root, s, s.fleet.Plan()); err != nil {
		return 0, err
	}

	// Episodes through the real in-memory handler, registered the way
	// the daemon's fleet was: a warm re-solve's work depends on the plan
	// it starts from.
	err = withHandler(server.Config{}, false, func(h *handler) error {
		if err := h.register(in.Register); err != nil {
			return err
		}
		// post sends one window; record says whether its time counts.
		post := func(record bool, body *gen.Body) error {
			stamp, err := st.stamp(body)
			if err != nil {
				return err
			}
			var a *server.WindowResponse
			ms := p.tr.timed(root, "server.window", stamp, func() { a, err = h.window(body.Bytes) })
			if err == nil && record {
				name := "server.window_handle_ms"
				if a.Triggered {
					name = "server.trigger_handle_ms"
				}
				p.samples[name] = append(p.samples[name], ms)
			}
			return err
		}
		for i := 0; i < warmWindows; i++ {
			if err := post(false, in.Windows[driftStates-1]); err != nil {
				return err
			}
		}
		for e := 0; p.more(e, 4) && e < 12 && ctx.Err() == nil; e++ {
			for w := 0; w < episodeWindows; w++ {
				if err := post(true, in.Windows[e%driftStates]); err != nil {
					return err
				}
			}
			p.timed(root, "server.plan_get", 0, func() { h.serve(http.MethodGet, "/v1/fleets/"+gen.StreamID+"/plan", nil) })
		}
		p.timed(root, "server.metrics_get", 0, func() { h.serve(http.MethodGet, "/metrics", nil) })
		return nil
	})
	if err != nil {
		return 0, err
	}
	trigger := stats.Median(p.samples["server.trigger_handle_ms"])
	pipeline := stats.Median(p.samples["wire.window_decode_ms"]) + stats.Median(p.samples["wire.to_workloads_ms"]) +
		stats.Median(p.samples["kairos.observe_trigger_ms"])
	p.layerMs["server"] += max(0, trigger-pipeline) * float64(triggers)
	return trigger + stats.Median(p.samples["server.plan_get_ms"]), nil
}
