package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// readyTimeout bounds every wait for a daemon to come up or go down.
const readyTimeout = 60 * time.Second

// env is what one invocation of the benchmark owns on disk and in the
// process table: the directories it writes to, the daemon binary it
// built, and every child and state directory still alive — so that one
// call removes them all, on return or on a signal.
type env struct {
	// root is the repository checkout, out the only directory written to.
	root, out string
	// bin is the built `kairos` binary.
	bin string

	mu      sync.Mutex
	daemons map[*daemon]bool // guarded by mu
	dirs    map[string]bool  // guarded by mu
	nextDir int              // guarded by mu
	// cpuSeconds and peakRSSMB sum up what the kernel charged to every
	// daemon that has ended: user + system CPU time, and the largest
	// resident set any of them reached (guarded by mu).
	cpuSeconds float64
	peakRSSMB  float64
}

// newEnv locates the checkout from the working directory, which is the
// benchmark's directory under `go run -C bench .` and `go test`.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(wd, "go.mod"))
	if err != nil || !bytes.Contains(mod, []byte("module kairos/bench")) {
		return nil, fmt.Errorf("run the benchmark from its own directory (go run -C bench .), not from %s", wd)
	}
	out := filepath.Join(wd, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &env{
		root:    filepath.Dir(wd),
		out:     out,
		bin:     filepath.Join(out, "kairos"),
		daemons: map[*daemon]bool{},
		dirs:    map[string]bool{},
	}, nil
}

// build compiles the daemon from the checkout's source.
func (e *env) build(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin, "./cmd/kairos")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building ./cmd/kairos: %v\n%s", err, out)
	}
	return nil
}

// stateDir creates a fresh journal directory under out/.
func (e *env) stateDir() (string, error) {
	e.mu.Lock()
	e.nextDir++
	dir := filepath.Join(e.out, fmt.Sprintf("state-%d-%d", os.Getpid(), e.nextDir))
	e.dirs[dir] = true
	e.mu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// removeDir deletes a state directory.
func (e *env) removeDir(dir string) {
	e.mu.Lock()
	delete(e.dirs, dir)
	e.mu.Unlock()
	_ = os.RemoveAll(dir) //kairoslint:allow errflow: best effort; a leftover directory is wiped when its name is next used
}

// cleanup kills every live daemon and removes every state directory. It
// is safe to call more than once and from the signal handler.
func (e *env) cleanup() {
	e.mu.Lock()
	daemons := make([]*daemon, 0, len(e.daemons))
	for d := range e.daemons {
		daemons = append(daemons, d)
	}
	dirs := make([]string, 0, len(e.dirs))
	for dir := range e.dirs {
		dirs = append(dirs, dir)
	}
	e.mu.Unlock()
	for _, d := range daemons {
		d.kill()
	}
	for _, dir := range dirs {
		e.removeDir(dir)
	}
}

// daemon is one running `kairos serve` child.
type daemon struct {
	env  *env
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// spawned is when the process was started, for restart-to-ready.
	spawned time.Time
	logf    *os.File
	waited  chan struct{}
	waitErr error // valid once waited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close() //kairoslint:allow errflow: the listener only existed to learn a free port
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts the daemon on a free loopback port without waiting for
// it. A non-empty dir makes it durable (-state-dir dir -fsync always);
// extra flags follow.
func (e *env) spawn(dir string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"serve", "-q", "-addr", addr}
	if dir != "" {
		args = append(args, "-state-dir", dir, "-fsync", "always")
	}
	args = append(args, extra...)
	logf, err := os.OpenFile(filepath.Join(e.out, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{env: e, cmd: cmd, base: "http://" + addr, logf: logf, waited: make(chan struct{})}
	d.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close() //kairoslint:allow errflow: already failing with the start error
		return nil, fmt.Errorf("starting %s: %w", e.bin, err)
	}
	e.mu.Lock()
	e.daemons[d] = true
	e.mu.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.waited)
	}()
	return d, nil
}

// start spawns the daemon and waits until /healthz answers.
func (e *env) start(ctx context.Context, dir string, extra ...string) (*daemon, error) {
	d, err := e.spawn(dir, extra...)
	if err != nil {
		return nil, err
	}
	if err := d.waitFor(ctx, "/healthz"); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitFor polls path until it answers 200, the daemon exits, or the
// timeout passes. It returns when the first 200 has been read.
func (d *daemon) waitFor(ctx context.Context, path string) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
		if err != nil {
			return err
		}
		if resp, err := pollClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) //kairoslint:allow errflow: only the status matters; a broken body is polled again
			resp.Body.Close()                     //kairoslint:allow errflow: response body only read
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.waited:
			return fmt.Errorf("daemon exited before %s answered: %v (see out/daemon.log)", path, d.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("daemon did not answer %s within %v", path, readyTimeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// pollClient opens a connection per probe: a daemon that is not
// listening yet must not leave a broken connection in a shared pool.
var pollClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// reap waits for the process to end, releases what it held and books
// the resources the kernel reports the process used.
func (d *daemon) reap() {
	<-d.waited
	d.logf.Close() //kairoslint:allow errflow: the daemon's log is a debugging aid; the handle may already be closed by an earlier reap
	e := d.env
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.daemons[d] {
		return
	}
	delete(e.daemons, d)
	if ps := d.cmd.ProcessState; ps != nil {
		e.cpuSeconds += (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			// Linux reports ru_maxrss in kilobytes.
			e.peakRSSMB = max(e.peakRSSMB, float64(ru.Maxrss)/1024)
		}
	}
}

// usage returns the CPU seconds and peak resident set (MB) of every
// daemon that has ended since the last call, and starts counting anew.
func (e *env) usage() (cpuSeconds, peakRSSMB float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cpuSeconds, peakRSSMB = e.cpuSeconds, e.peakRSSMB
	e.cpuSeconds, e.peakRSSMB = 0, 0
	return cpuSeconds, peakRSSMB
}

// kill sends SIGKILL — the crash — and waits for the process to end.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() //kairoslint:allow errflow: fails only when the process has already ended, which reap observes
	d.reap()
}

// term sends SIGTERM — the graceful shutdown that snapshots the journal
// — and waits for the process to end, killing it after the timeout.
func (d *daemon) term() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.reap()
		return fmt.Errorf("daemon had already exited: %v (see out/daemon.log)", d.waitErr)
	}
	select {
	case <-d.waited:
		d.reap()
		return d.waitErr
	case <-time.After(readyTimeout):
		d.kill()
		return fmt.Errorf("daemon ignored SIGTERM for %v", readyTimeout)
	}
}

// dirMB is the total size of the files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	//kairoslint:allow errflow: the callback never fails; files that vanish mid-walk (a snapshot's temp file) are skipped
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6
}
