package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kairos/internal/journal"
	"kairos/internal/server"
)

// newHTTPServer builds the daemon's http.Server with its hardening
// timeouts: ReadHeaderTimeout bounds slow-loris header dribbling and
// IdleTimeout reaps abandoned keep-alive connections. No ReadTimeout —
// window bodies from slow collectors may legitimately stream for a
// while (the body size itself is bounded by the handler).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// cmdServe runs the long-running control plane: an HTTP daemon exposing
// the /v1/ fleet API (register fleets, stream observation windows from
// concurrent collectors, query plans and re-consolidation events) plus
// Prometheus-text /metrics. A fleet's windows apply one at a time under
// the fleet's turn; SIGINT/SIGTERM shut the daemon down gracefully,
// draining in-flight ingests before exiting. With -state-dir the daemon is
// crash-safe: every mutation is journaled before it is acknowledged,
// and a restart replays the journal to resume exactly where the crashed
// process stopped.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	quiet := fs.Bool("q", false, "suppress per-event logging")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown drain timeout")
	stateDir := fs.String("state-dir", "", "directory for the durability journal (empty = in-memory only)")
	fsync := fs.String("fsync", "always", "journal fsync policy: always, interval, none")
	fsyncEvery := fs.Duration("fsync-every", journal.DefaultSyncEvery, "flush period for -fsync=interval")
	snapEvery := fs.Int("snapshot-every", 256, "windows between journal-compacting snapshots")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logf := log.New(os.Stderr, "kairos: ", log.LstdFlags).Printf
	if *quiet {
		logf = nil
	}
	sync, err := journal.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	cp, err := server.Open(server.Config{
		Logf:          logf,
		StateDir:      *stateDir,
		Journal:       journal.Options{Sync: sync, SyncEvery: *fsyncEvery},
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(*addr, cp.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	durable := "in-memory"
	if *stateDir != "" {
		durable = fmt.Sprintf("journaling to %s (fsync=%s)", *stateDir, *fsync)
	}
	fmt.Fprintf(os.Stderr, "kairos: serving fleet API on %s, %s (POST /v1/fleets to register)\n", *addr, durable)

	select {
	case err := <-errc:
		if closeErr := cp.Close(); err == nil {
			err = closeErr
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "kairos: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Close the control plane first: it cancels every fleet's context,
	// which aborts in-flight solves, so the HTTP drain below can
	// finish within the grace window instead of waiting out a multi-second
	// re-solve. Aborted ingests are answered 503 before their connections
	// close.
	err = cp.Close()
	if shutErr := httpSrv.Shutdown(sctx); err == nil {
		err = shutErr
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}
