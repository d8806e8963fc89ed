package main

import (
	"context"
	"fmt"
	"net/http"

	"kairos"
	"kairos/bench/gen"
	"kairos/internal/core"
	"kairos/internal/direct"
	"kairos/internal/greedy"
	"kairos/internal/series"
	"kairos/internal/server"
)

// cold replays one round of registrations through the mirrored register
// pipeline (decode → convert → Fleet.Consolidate), with each case's
// solve standalone on internal/core, then the solver's seeds and global
// search and the disk model on their own, then the round through the
// real handler.
func (p *probe) cold(ctx context.Context) (float64, error) {
	rounds, err := gen.Cold(p.r.seed, p.r.quick, 1)
	if err != nil {
		return 0, err
	}
	root := p.tr.begin(noParent, "mirror.cold-register", 0)
	defer p.tr.end(root)
	var biggest, direct40 *session
	for i, cs := range rounds[0] {
		request := int64(i + 1)
		s, _, err := p.registerMirror(ctx, root, cs.Body, request)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", cs.ID, err)
		}
		plan := s.fleet.Plan()
		metric := "core.solve_cold"
		switch {
		case s.disk != nil:
			metric = "core.solve_disk"
		case s.req.Options.Shards > 0:
			metric = "core.solve_sharded4"
		case s.req.Options.FullSolve:
			metric = "core.solve_direct"
		}
		var sol *core.Solution
		c := p.timed(root, metric, request, func() { sol, err = s.coldSolve(ctx) })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", cs.ID, err)
		}
		if sol.K != plan.K {
			return 0, fmt.Errorf("%s: the standalone solve found K=%d, the session's K=%d", cs.ID, sol.K, plan.K)
		}
		switch metric {
		case "core.solve_cold":
			p.r.set("core.solve_cold_fevals", float64(sol.Fevals), 1)
			p.r.set("core.solve_cold_k", float64(sol.K), 1)
		case "core.solve_sharded4":
			p.r.set("core.solve_sharded4_k", float64(sol.K), 1)
		}
		// Consolidate is the solve plus the plan's decoration.
		n := len(p.samples["kairos.consolidate_ms"])
		p.layerMs["core"] += c
		p.layerMs["kairos"] -= min(c, p.samples["kairos.consolidate_ms"][n-1])
		if biggest == nil || len(s.wls) > len(biggest.wls) {
			biggest = s
		}
		if s.req.Options.FullSolve && (direct40 == nil || len(s.wls) == 40) {
			direct40 = s
		}
	}
	if err := p.seeds(root, biggest, direct40); err != nil {
		return 0, err
	}
	if err := p.pricers(root, biggest, biggest.fleet.Plan()); err != nil {
		return 0, err
	}

	var round float64
	err = withHandler(server.Config{}, false, func(h *handler) error {
		for i, cs := range rounds[0] {
			request := int64(i + 1)
			var regErr error
			reg := p.timed(root, "server.register_handle", request, func() { regErr = h.register(cs.Body) })
			if regErr != nil {
				return regErr
			}
			get := p.timed(root, "server.plan_get", request, func() { h.serve(http.MethodGet, "/v1/fleets/"+cs.ID+"/plan", nil) })
			del := p.tr.timed(root, "server.delete_handle", request, func() { h.serve(http.MethodDelete, "/v1/fleets/"+cs.ID, nil) })
			round += reg + get + del
		}
		p.timed(root, "server.metrics_get", 0, func() { h.serve(http.MethodGet, "/metrics", nil) })
		return nil
	})
	if err != nil {
		return 0, err
	}
	var mirrored float64
	for _, name := range []string{"wire.register_decode_ms", "wire.to_workloads_ms", "kairos.consolidate_ms"} {
		for _, v := range p.samples[name] {
			mirrored += v
		}
	}
	p.layerMs["server"] += max(0, round-mirrored)
	return round, nil
}

// seeds times the cold solver's two global ingredients on their own:
// the greedy multi-resource packing that bounds K from above, on the
// largest fleet of the round, and a DIRECT search over the compact
// encoding, on the smallest fleet the round solves with it.
func (p *probe) seeds(parent int, big, small *session) error {
	ev, err := core.NewEvaluator(big.problem())
	if err != nil {
		return err
	}
	peak := func(get func(kairos.Workload) *series.Series) []float64 {
		out := make([]float64, len(big.wls))
		for i, w := range big.wls {
			for _, v := range get(w).Values {
				out[i] = max(out[i], v)
			}
		}
		return out
	}
	loads := [][]float64{
		peak(func(w kairos.Workload) *series.Series { return w.CPU }),
		peak(func(w kairos.Workload) *series.Series { return w.RAMBytes }),
	}
	scratch := make([]int, 0, len(big.wls))
	fits := func(bin []int, item int) bool {
		scratch = append(append(scratch[:0], bin...), item)
		return ev.FitsOneMachine(0, scratch)
	}
	for i := 0; i < 3; i++ {
		var ok bool
		p.timed(parent, "greedy.multires", 0, func() { _, ok, err = greedy.MultiResource(loads, fits, len(big.machines)) })
		if err != nil || !ok {
			return fmt.Errorf("greedy packing of %d workloads failed: %v", len(big.wls), err)
		}
	}

	sev, err := core.NewEvaluator(small.problem())
	if err != nil {
		return err
	}
	K := small.fleet.Plan().K
	nU := sev.NumUnits()
	lower, upper := make([]float64, nU), make([]float64, nU)
	for i := range upper {
		upper[i] = float64(K)
	}
	tmp := make([]int, nU)
	obj := func(x []float64) float64 {
		for i, v := range x {
			tmp[i] = min(int(v), K-1)
		}
		o, _ := sev.Eval(tmp, K)
		return o
	}
	p.timed(parent, "direct.minimize", 0, func() {
		_, err = direct.Minimize(obj, lower, upper, direct.Options{MaxFevals: small.solve.DirectFevals, Epsilon: 1e-4})
	})
	if err != nil {
		return err
	}

	dp := gen.DiskProfile()
	const calls = 200000
	ms := p.tr.timed(parent, "model.predict_write", 0, func() {
		for i := 0; i < calls; i++ {
			sink += dp.PredictWriteMBps(float64(1+i%64)*1e9, float64(100+i%977))
		}
	})
	p.r.set("model.predict_write_us", ms*1e3/calls, calls)
	return nil
}
