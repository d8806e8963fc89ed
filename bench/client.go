package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"kairos/internal/server"
)

// maxCollectors caps the load generator's concurrency: never more
// connections or sending goroutines than the machine has processors, so
// the generator does not compete with the daemon it measures.
func maxCollectors(want int) int {
	return min(want, runtime.NumCPU())
}

// client is the load generator's HTTP side: one keep-alive connection
// pool aimed at the current daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        maxCollectors(2),
			MaxIdleConnsPerHost: maxCollectors(2),
			MaxConnsPerHost:     maxCollectors(2),
		}},
		base: base,
	}
}

// retarget points the client at a restarted daemon.
func (c *client) retarget(base string) {
	c.hc.CloseIdleConnections()
	c.base = base
}

// do sends one request and reads the whole response body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //kairoslint:allow errflow: response body only read
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading %s %s response: %w", method, path, err)
	}
	return resp.StatusCode, b, nil
}

// getJSON sends a GET and decodes a 200 response into out.
func (c *client) getJSON(ctx context.Context, path string, out any) error {
	status, b, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, b)
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("GET %s: decoding body: %w", path, err)
	}
	return nil
}

// plan fetches a fleet's served plan.
func (c *client) plan(ctx context.Context, id string) (*server.PlanWire, error) {
	var p server.PlanWire
	if err := c.getJSON(ctx, "/v1/fleets/"+id+"/plan", &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// checkPlan is the correctness check of a served plan: feasible, every
// placement unit assigned exactly once, every machine index inside [0, K).
func checkPlan(p *server.PlanWire, units int) error {
	if !p.Feasible {
		return fmt.Errorf("plan is infeasible (K=%d)", p.K)
	}
	if len(p.Assignments) != units {
		return fmt.Errorf("plan has %d assignments, want %d", len(p.Assignments), units)
	}
	seen := make(map[string]bool, units)
	for _, a := range p.Assignments {
		if a.Machine < 0 || a.Machine >= p.K {
			return fmt.Errorf("unit %q on machine %d outside [0,%d)", a.Unit, a.Machine, p.K)
		}
		if seen[a.Unit] {
			return fmt.Errorf("unit %q assigned twice", a.Unit)
		}
		seen[a.Unit] = true
	}
	return nil
}

// samePlacement reports whether two plans place every unit on the same
// machine — what must survive a restart.
func samePlacement(a, b *server.PlanWire) bool {
	if a.K != b.K || len(a.Assignments) != len(b.Assignments) {
		return false
	}
	for i := range a.Assignments {
		if a.Assignments[i].Unit != b.Assignments[i].Unit || a.Assignments[i].Machine != b.Assignments[i].Machine {
			return false
		}
	}
	return true
}

// scrape reads /metrics and returns the value of every sample whose
// line starts with one of the wanted series (name plus label set, as
// printed), keyed by that prefix.
func (c *client) scrape(ctx context.Context, want ...string) (map[string]float64, error) {
	status, b, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		for _, series := range want {
			if text, ok := strings.CutPrefix(line, series+" "); ok {
				v, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, fmt.Errorf("/metrics %s: %w", series, err)
				}
				out[series] = v
			}
		}
	}
	for _, series := range want {
		if _, ok := out[series]; !ok {
			return nil, fmt.Errorf("/metrics has no series %s", series)
		}
	}
	return out, nil
}
