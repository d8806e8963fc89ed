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

// crash prepares, with an in-process durable server, the two state
// directories a crash-recover cycle leaves behind — a snapshot alone
// (after SIGTERM) and the same snapshot followed by a journal of windows
// and one advance (after SIGKILL) — and times reading them back: the
// journal layer alone, the record-by-record replay mirrored by hand,
// and server.Open.
func (p *probe) crash(ctx context.Context) (float64, error) {
	in, err := gen.Drift(p.r.seed, p.r.quick, 2)
	if err != nil {
		return 0, err
	}
	root := p.tr.begin(noParent, "mirror.crash-recover", 0)
	defer p.tr.end(root)
	setup := p.tr.begin(root, "setup", 0)
	reg, err := shardedRegister(in.Register)
	if err != nil {
		return 0, err
	}
	dir, err := p.r.env.stateDir()
	if err != nil {
		return 0, err
	}
	defer p.r.env.removeDir(dir)
	cfg := server.Config{StateDir: dir, SnapshotEvery: 1000000}
	var st stamper
	// post sends one window; the warm-up's may trigger or not.
	post := func(h *handler, body *gen.Body, warm, wantTrigger bool) error {
		if _, err := st.stamp(body); err != nil {
			return err
		}
		a, err := h.window(body.Bytes)
		if err == nil && !warm && a.Triggered != wantTrigger {
			err = fmt.Errorf("preparing the state directory: window %d triggered=%v", a.Window, a.Triggered)
		}
		return err
	}
	// Register, warm up and close gracefully: the directory then holds a
	// snapshot and no journal.
	err = withHandler(cfg, true, func(h *handler) error {
		if err := h.register(reg); err != nil {
			return err
		}
		for i := 0; i < warmWindows; i++ {
			if err := post(h, in.Windows[1], true, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	p.tr.end(setup)

	// server.Open on the snapshot alone. Every control plane is stopped
	// as a crash would stop it, which leaves the directory as it was; the
	// last one first journals one cycle's windows.
	for i := 0; i < 5; i++ {
		var h *handler
		p.timed(root, "server.open_snapshot", 0, func() { h, err = openHandler(cfg) })
		if err != nil {
			return 0, err
		}
		err = h.stopAfter(false, func(h *handler) error {
			for w := 0; i == 4 && w < crashWindows; w++ {
				body, want := in.Windows[1], false
				if w >= crashDriftAt {
					body, want = in.Windows[0], w == crashDriftAt
				}
				if err := post(h, body, false, want); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}

	// The journal layer alone: read, checksum and frame the records.
	var rec *journal.Recovered
	for i := 0; i < 5; i++ {
		var l *journal.Log
		ms := p.tr.timed(root, "journal.recover", 0, func() { l, rec, err = journal.Open(dir, journal.Options{}) })
		if err != nil {
			return 0, err
		}
		if err := l.Close(); err != nil {
			return 0, err
		}
		if len(rec.Records) != crashWindows+1 {
			return 0, fmt.Errorf("the prepared journal holds %d records, want %d windows and 1 advance", len(rec.Records), crashWindows)
		}
		var size float64
		for _, r := range rec.Records {
			size += float64(len(r.Payload))
		}
		p.samples["journal.recover_ms_per_record"] = append(p.samples["journal.recover_ms_per_record"], ms/float64(len(rec.Records)))
		p.samples["journal.recover_mb_per_s"] = append(p.samples["journal.recover_mb_per_s"], (size+float64(len(rec.Snapshot)))/1e6/(ms/1e3))
		p.layerMs["journal"] += ms / 5
	}

	// The replay mirrored by hand: snapshot → session, then each record.
	if err := p.replay(ctx, root, rec); err != nil {
		return 0, err
	}

	// server.Open on snapshot + journal, which is what the daemon does
	// between being spawned and serving the plan.
	for i := 0; i < 5; i++ {
		var h *handler
		p.timed(root, "server.open_journal", 0, func() { h, err = openHandler(cfg) })
		if err != nil {
			return 0, err
		}
		err = h.stopAfter(false, func(h *handler) error {
			if code, _ := h.serve(http.MethodGet, "/v1/fleets/"+gen.StreamID+"/plan", nil); code != http.StatusOK {
				return fmt.Errorf("in-process recovery serves the plan with status %d", code)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	openJournal := stats.Median(p.samples["server.open_journal_ms"])
	openSnapshot := stats.Median(p.samples["server.open_snapshot_ms"])
	delete(p.samples, "server.open_journal_ms")
	p.r.set("server.open_replay_ms_per_window", (openJournal-openSnapshot)/crashWindows, 5)
	p.layerMs["server"] += max(0, openJournal-p.layerMs["journal"]-p.layerMs["wire"]-p.layerMs["kairos"]-p.layerMs["drift"])
	return openJournal, nil
}

// replay mirrors server.replay on a recovered journal: decode the
// snapshot and rebuild the session from it, then decode each record and
// run it through the state machine the live server used (windows
// detect-only, the advance from its journaled incumbent).
func (p *probe) replay(ctx context.Context, parent int, rec *journal.Recovered) error {
	id := p.tr.begin(parent, "pipeline.recover", 0)
	defer p.tr.end(id)
	var snap server.SnapshotWire
	var err error
	dec := p.tr.timed(id, "wire.snapshot_decode", 0, func() { err = json.Unmarshal(rec.Snapshot, &snap) })
	if err != nil || len(snap.Fleets) != 1 {
		return fmt.Errorf("decoding the prepared snapshot: %d fleets, %v", len(snap.Fleets), err)
	}
	fs := &snap.Fleets[0]
	var s *session
	conv := p.timed(id, "wire.to_workloads", 0, func() { s, err = newSession(*fs.Request) })
	if err != nil {
		return err
	}
	restore := p.timed(id, "kairos.restore", 0, func() {
		if _, err = s.fleet.AdoptIncumbent(fs.Incumbent); err != nil {
			return
		}
		cp := &kairos.FleetCheckpoint{Incumbent: fs.Incumbent, Windows: fs.Detector.Windows, Armed: fs.Detector.Armed, Cooldown: fs.Detector.Cooldown}
		if cp.Baseline, err = toWorkloads(fs.Baseline, false); err != nil {
			return
		}
		for _, h := range fs.History {
			w, herr := toWorkloads(h, false)
			if herr != nil {
				err = herr
				return
			}
			cp.History = append(cp.History, w)
		}
		err = s.fleet.RestoreWatch(cp)
	})
	if err != nil {
		return err
	}
	p.layerMs["wire"] += dec + conv
	p.layerMs["kairos"] += restore

	det, err := drift.NewDetector(s.driftCfg, driftSamples(s.wls))
	if err != nil {
		return err
	}
	windows, triggers := 0, 0
	for i, r := range rec.Records {
		request := int64(i + 1)
		var rw server.RecordWire
		dec := p.timed(id, "wire.record_decode", request, func() { err = json.Unmarshal(r.Payload, &rw) })
		if err != nil {
			return err
		}
		p.layerMs["wire"] += dec
		switch {
		case rw.Window != nil:
			var window []kairos.Workload
			conv := p.timed(id, "wire.to_workloads", request, func() { window, err = toWorkloads(rw.Window.Workloads, false) })
			if err != nil {
				return err
			}
			var fired bool
			obs := p.timed(id, "kairos.observe_quiet", request, func() { fired, err = s.fleet.ObserveDetectOnly(window) })
			if err != nil {
				return err
			}
			// The detector standalone, for its share of the replay; its
			// baseline is the registration's, not the restored one, so
			// only its time is used.
			d := p.timed(id, "drift.observe", request, func() { _, err = det.Observe(driftSamples(window)) })
			if err != nil {
				return err
			}
			windows++
			if fired {
				triggers++
			}
			p.layerMs["wire"] += conv
			p.layerMs["drift"] += min(d, obs)
			p.layerMs["kairos"] += max(0, obs-d)
		case rw.Advance != nil:
			adv := p.tr.timed(id, "kairos.replay_advance", request, func() { _, err = s.fleet.ReplayAdvance(rw.Advance.Incumbent) })
			if err != nil {
				return err
			}
			p.layerMs["kairos"] += adv
		default:
			return fmt.Errorf("journal record %d is neither a window nor an advance", r.Seq)
		}
	}
	if windows != crashWindows || triggers != 1 {
		return fmt.Errorf("the mirrored replay saw %d windows and %d triggers, want %d and 1", windows, triggers, crashWindows)
	}
	p.r.set("drift.windows", float64(windows), 0)
	p.r.set("drift.triggers", float64(triggers), 0)
	var cp *kairos.FleetCheckpoint
	p.timed(id, "kairos.checkpoint", 0, func() { cp = s.fleet.Checkpoint() })
	if cp.Windows != warmWindows+crashWindows {
		return fmt.Errorf("the replayed session counts %d windows, want %d", cp.Windows, warmWindows+crashWindows)
	}
	return nil
}
