package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kairos/bench/stats"
)

// The sandbox the benchmark is judged on is a two-processor virtual
// machine on a shared host. Its speed for code that allocates and
// misses the cache — which is what decoding, encoding and replaying
// 2 MB windows is, and a good part of a solve — shifts by tens of per
// cent for minutes at a time, while compute that stays in the cache
// hardly moves (README.md, "Noise": the same quiet ack took 50 ms in one
// hour and 86 ms in the next). No absolute time repeats from run to run
// within the 0.25 a bound may be at most. What does repeat is a time
// relative to a reference kernel measured in the same seconds: fixed
// work that depends on nothing in this repository and loads the machine
// the way the control plane does — JSON through encoding/json, and for a
// durable daemon an append to a growing file with an fsync, because the
// page cache is the part of the machine that swings widest (writing
// 2.2 MB to a file took between 0.7 and 18 ms within one minute). The
// load generator runs the kernel between operations, while the daemon is idle; the run's speed factor
// is the kernel's median time over its nominal time, and the timings are
// reported divided by it — "normalised" milliseconds, those of a machine
// on which the kernel takes its nominal time. The raw timings are
// printed next to them.

// The kernel's median time on the sandbox at its fastest, in memory and
// durable, so that a speed factor of 1 means "as fast as it gets" there
// and normalised times read like raw ones.
const (
	refNominalMs        = 36.0
	refNominalDurableMs = 40.0
)

// refTruncateEvery bounds the kernel's file the way the daemon's default
// snapshot cadence bounds its journal.
const refTruncateEvery = 256

// refWorkload has the shape of one workload of a window on the wire,
// declared here so that no change to the repository's wire types can
// move the kernel.
type refWorkload struct {
	Name        string    `json:"name"`
	StartUnix   int64     `json:"start_unix"`
	StepSeconds float64   `json:"step_seconds"`
	CPU         []float64 `json:"cpu"`
	RAMBytes    []float64 `json:"ram_bytes"`
}

// refDoc is the kernel's input: a document the size of a 197-server
// window (two 288-sample series per workload, full-precision floats).
// A smaller one stays in the cache and follows the machine's slow
// stretches only half as far as the daemon's work does.
var (
	refOnce sync.Once
	refDoc  []byte
)

func refInput() {
	doc := make([]refWorkload, 197)
	for i := range doc {
		w := refWorkload{Name: "reference", StartUnix: 1700000000, StepSeconds: 300, CPU: make([]float64, 288), RAMBytes: make([]float64, 288)}
		for j := range w.CPU {
			x := float64(i*288+j+1) * 0.0123456789
			w.CPU[j] = x - float64(int(x))
			w.RAMBytes[j] = x * 1e7
		}
		doc[i] = w
	}
	var err error
	if refDoc, err = json.Marshal(doc); err != nil {
		panic(err) // a slice of finite floats always marshals
	}
}

// reference is the kernel as one run uses it.
type reference struct {
	// log is the file a durable workload's kernel appends to; nil for a
	// workload whose daemon keeps no journal.
	log     *os.File
	appends int
}

// durableRef makes the run's kernel durable, for a workload whose daemon
// is. The returned function removes the kernel's file.
func (r *run) durableRef() (release func(), err error) {
	dir, err := r.env.stateDir()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "reference.log"))
	if err != nil {
		r.env.removeDir(dir)
		return nil, err
	}
	r.ref = reference{log: f}
	return func() {
		f.Close() //kairoslint:allow errflow: scratch data in a directory removed on the next line; nothing reads it back
		r.env.removeDir(dir)
	}, nil
}

// time runs the kernel once and returns how long it took, in
// milliseconds: decode the document with encoding/json and encode it
// again — the standard library's share of one ingested window — and,
// when durable, append the encoding to the file and fsync. Call it only
// while the daemon is idle, and from one goroutine at a time.
func (k *reference) time() (float64, error) {
	refOnce.Do(refInput)
	t0 := time.Now()
	var doc []refWorkload
	if err := json.Unmarshal(refDoc, &doc); err != nil {
		return 0, err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	if k.log != nil {
		if k.appends++; k.appends%refTruncateEvery == 0 {
			if err := k.log.Truncate(0); err != nil {
				return 0, err
			}
			if _, err := k.log.Seek(0, io.SeekStart); err != nil {
				return 0, err
			}
		}
		if _, err := k.log.Write(b); err != nil {
			return 0, err
		}
		if err := k.log.Sync(); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(t0)), nil
}

// factor is how many times its nominal time the kernel took at the
// median of samples; 1 when nothing was sampled.
func (k *reference) factor(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return stats.Median(samples) / k.nominalMs()
}

func (k *reference) nominalMs() float64 {
	if k.log != nil {
		return refNominalDurableMs
	}
	return refNominalMs
}

// sampleRef adds one sample of the reference kernel to the run's timed
// phase. A kernel that fails (a full disk) counts as a failed operation.
func (r *run) sampleRef() {
	d, err := r.ref.time()
	if err != nil {
		r.op(err)
		return
	}
	r.mu.Lock()
	r.refMs = append(r.refMs, d)
	r.mu.Unlock()
}

// speed is the speed factor of the run's timed phase and the number of
// samples behind it.
func (r *run) speed() (factor float64, samples int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ref.factor(r.refMs), len(r.refMs)
}
