package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestQuick runs all four workloads in -quick mode — small fleets, one
// operation each, tracing off and on — against a real daemon, and checks
// that every operation succeeded, every metric was printed, nothing is
// left running and only out/ was written to. Skipped under -short.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons; skipped under -short")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := e.build(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := &run{env: e, workload: w, seed: 1, quick: true}
			if traced {
				r.tr = newTracer()
			}
			if err := r.execute(ctx); err != nil {
				r.report(os.Stderr)
				t.Fatalf("%s (traced=%v): %v", w, traced, err)
			}
			res := r.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				r.report(os.Stderr)
				t.Fatalf("%s (traced=%v): %d of %d operations failed", w, traced, res.Failed, res.Attempted)
			}
			for _, d := range r.defs() {
				if _, ok := r.values[d.name]; !ok && !traced {
					t.Errorf("%s: end-to-end metric %s was not measured", w, d.name)
				}
			}
			if !traced {
				for _, name := range []string{"setup_s", "op_p50_norm_ms", "ops_per_norm_s", "machines_k"} {
					if !(r.values[name].v > 0) {
						t.Errorf("%s: %s = %v, want a positive value", w, name, r.values[name].v)
					}
				}
				if p, rc := r.values["trigger_precision"].v, r.values["trigger_recall"].v; p != 1 || rc != 1 {
					t.Errorf("%s: trigger precision %v, recall %v, want 1 and 1", w, p, rc)
				}
			} else if r.tr.count() == 0 {
				t.Errorf("%s: the traced run recorded no spans", w)
			}
		}
	}
	t.Logf("quick suite took %v", time.Since(start))

	e.mu.Lock()
	alive, dirs := len(e.daemons), len(e.dirs)
	e.mu.Unlock()
	if alive != 0 || dirs != 0 {
		t.Errorf("after the runs %d daemons are alive and %d state directories remain", alive, dirs)
	}
	left, err := filepath.Glob(filepath.Join(e.out, fmt.Sprintf("state-%d-*", os.Getpid())))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("state directories left behind: %v", left)
	}
}

// A daemon that never becomes healthy must be reported, killed and
// forgotten, not waited for forever.
func TestStartReportsADaemonThatExits(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon; skipped under -short")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	if err := e.build(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.start(context.Background(), "", "-fsync", "sometimes"); err == nil {
		t.Fatal("a daemon started with an unknown fsync policy was reported healthy")
	}
	e.mu.Lock()
	alive := len(e.daemons)
	e.mu.Unlock()
	if alive != 0 {
		t.Errorf("%d daemons still tracked after a failed start", alive)
	}
}
