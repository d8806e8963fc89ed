package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"kairos"
	"kairos/bench/gen"
	"kairos/bench/stats"
	"kairos/internal/drift"
	"kairos/internal/journal"
	"kairos/internal/server"
)

// steady replays quiet windows through the durable ingest pipeline:
// decode → convert → encode the journal record → append (fsync) →
// observe, with the detector and an unsynced journal standalone on the
// same inputs, then snapshots, then the same windows through the real
// handler. It returns the in-process time of the workload's operation.
func (p *probe) steady(ctx context.Context) (float64, error) {
	in, err := gen.Quiet(p.r.seed, p.r.quick, quietVariants)
	if err != nil {
		return 0, err
	}
	root := p.tr.begin(noParent, "mirror.steady-ingest", 0)
	defer p.tr.end(root)
	setup := p.tr.begin(root, "setup", 0)
	saved := p.layerMs
	p.layerMs = map[string]float64{} // set-up is not part of the shares
	s, _, err := p.registerMirror(ctx, setup, in.Register, 0)
	p.layerMs = saved
	if err != nil {
		return 0, err
	}
	det, err := drift.NewDetector(s.driftCfg, driftSamples(s.wls))
	if err != nil {
		return 0, err
	}
	logs := [2]*journal.Log{}
	for i, policy := range []journal.SyncPolicy{journal.SyncAlways, journal.SyncNone} {
		dir, err := p.r.env.stateDir()
		if err != nil {
			return 0, err
		}
		defer p.r.env.removeDir(dir)
		if logs[i], _, err = journal.Open(dir, journal.Options{Sync: policy}); err != nil {
			return 0, err
		}
		defer logs[i].Close() //kairoslint:allow errflow: a scratch journal in a directory removed right after; nothing reads it back
	}
	p.tr.end(setup)

	var st stamper
	var appendBytes, appendMs float64
	triggers := 0
	for i := 0; p.more(i, 8) && i < 30 && ctx.Err() == nil; i++ {
		body := in.Windows[i%len(in.Windows)]
		stamp, err := st.stamp(body)
		if err != nil {
			return 0, err
		}
		req := p.tr.begin(root, "pipeline.window", stamp)
		var wr server.WindowRequest
		dec := p.timed(req, "wire.window_decode", stamp, func() { err = json.Unmarshal(body.Bytes, &wr) })
		if err != nil {
			return 0, err
		}
		var window []kairos.Workload
		conv := p.timed(req, "wire.to_workloads", stamp, func() { window, err = toWorkloads(wr.Workloads, false) })
		if err != nil {
			return 0, err
		}
		var payload []byte
		enc := p.timed(req, "wire.record_encode", stamp, func() {
			payload, err = json.Marshal(&server.RecordWire{Window: &server.WindowRecord{Fleet: s.req.ID, Workloads: wr.Workloads}})
		})
		if err != nil {
			return 0, err
		}
		app := p.timed(req, "journal.append_always", stamp, func() { _, err = logs[0].Append(payload) })
		if err != nil {
			return 0, err
		}
		var ev *kairos.ReconsolidationEvent
		obs := p.timed(req, "kairos.observe_quiet", stamp, func() { ev, err = s.fleet.Observe(ctx, window) })
		if err != nil {
			return 0, err
		}
		p.tr.end(req)
		if ev != nil {
			triggers++
		}

		alone := p.tr.begin(root, "standalone", stamp)
		var trig *drift.Trigger
		d := p.timed(alone, "drift.observe", stamp, func() { trig, err = det.Observe(driftSamples(window)) })
		if err != nil {
			return 0, err
		}
		if trig != nil {
			triggers++
		}
		p.timed(alone, "journal.append_none", stamp, func() { _, err = logs[1].Append(payload) })
		if err != nil {
			return 0, err
		}
		p.tr.end(alone)

		p.samples["kairos.observe_self_ms"] = append(p.samples["kairos.observe_self_ms"], obs-d)
		p.layerMs["wire"] += dec + conv + enc
		p.layerMs["journal"] += app
		p.layerMs["drift"] += d
		p.layerMs["kairos"] += max(0, obs-d)
		appendBytes += float64(len(payload))
		appendMs += app
		p.r.set("wire.window_bytes", float64(len(body.Bytes)), 0)
	}
	if triggers > 0 {
		return 0, fmt.Errorf("%d quiet windows triggered in the in-process replay", triggers)
	}
	p.r.set("drift.windows", float64(det.Window()), 0)
	p.r.set("drift.triggers", float64(triggers), 0)
	p.r.set("journal.append_mb_per_s", appendBytes/1e6/(appendMs/1e3), 0)

	// Snapshots: what the 256-window compaction costs an unlucky ack.
	for i := 0; i < 3; i++ {
		var cp *kairos.FleetCheckpoint
		p.timed(root, "kairos.checkpoint", 0, func() { cp = s.fleet.Checkpoint() })
		state, err := snapshotPayload(s, cp)
		if err != nil {
			return 0, err
		}
		p.timed(root, "journal.snapshot", 0, func() { err = logs[0].Snapshot(state) })
		if err != nil {
			return 0, err
		}
	}
	js := logs[0].Stats()
	p.r.set("journal.appends", float64(js.Appends), 0)
	p.r.set("journal.syncs", float64(js.Syncs), 0)
	p.r.set("journal.snapshots", float64(js.Snapshots), 0)

	// The same windows through the real handler, durable and in-memory.
	reg, err := shardedRegister(in.Register)
	if err != nil {
		return 0, err
	}
	dir, err := p.r.env.stateDir()
	if err != nil {
		return 0, err
	}
	defer p.r.env.removeDir(dir)
	for _, cfg := range []struct {
		metric string
		cfg    server.Config
	}{
		{"server.window_handle_durable", server.Config{StateDir: dir}},
		{"server.window_handle", server.Config{}},
	} {
		err := withHandler(cfg.cfg, false, func(h *handler) error {
			if err := h.register(reg); err != nil {
				return err
			}
			for i := 0; p.more(i, 8) && i < 30 && ctx.Err() == nil; i++ {
				body := in.Windows[i%len(in.Windows)]
				stamp, err := st.stamp(body)
				if err != nil {
					return err
				}
				var a *server.WindowResponse
				p.timed(root, cfg.metric, stamp, func() { a, err = h.window(body.Bytes) })
				if err == nil && a.Triggered {
					err = fmt.Errorf("a quiet window triggered in the in-process handler")
				}
				if err != nil {
					return err
				}
			}
			for i := 0; i < 5; i++ {
				p.timed(root, "server.plan_get", 0, func() { h.serve(http.MethodGet, "/v1/fleets/"+gen.StreamID+"/plan", nil) })
				p.timed(root, "server.metrics_get", 0, func() { h.serve(http.MethodGet, "/metrics", nil) })
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	durable := stats.Median(p.samples["server.window_handle_durable_ms"])
	pipeline := stats.Median(p.samples["wire.window_decode_ms"]) + stats.Median(p.samples["wire.to_workloads_ms"]) +
		stats.Median(p.samples["wire.record_encode_ms"]) + stats.Median(p.samples["journal.append_always_ms"]) +
		stats.Median(p.samples["kairos.observe_quiet_ms"])
	// The handler's own share: what it takes beyond the mirrored steps
	// (the hand-off to the reconcile loop, the ack ring, the response).
	p.layerMs["server"] += max(0, durable-pipeline) * float64(len(p.samples["wire.window_decode_ms"]))
	return durable, nil
}
