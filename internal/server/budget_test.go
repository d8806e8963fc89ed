package server

import (
	"net/http"
	"strings"
	"sync"
	"testing"

	"kairos/internal/cpu"
)

// TestHoldSplitsLikeOneCollector: on two cores a window decoded with no
// other request in flight splits in two, and one decoded while another is
// in flight holds the one helper slot — also when the other's split chunk
// has it and gives it back before this decode starts — so neither splits:
// two collectors leave the fleet's serial loop its core.
func TestHoldSplitsLikeOneCollector(t *testing.T) {
	doc := window197(t)
	atProcs(2, func() {
		s := New(nil)
		defer s.Close()
		for _, tc := range []struct {
			live    int64
			busy    bool // the other request's chunk has the slot at hold
			adopted int64
		}{{1, false, 1}, {2, false, 0}, {2, true, 0}} {
			s.live.Store(tc.live)
			adopted := splitAdopted.Load()
			busy := tc.busy && cpu.TryAcquire()
			release := s.hold()
			if busy {
				cpu.Release()
			}
			_, _, err := decodeWindow(doc)
			held := cpu.InUse()
			release()
			if n := splitAdopted.Load() - adopted; err != nil || n != tc.adopted {
				t.Errorf("%d requests in flight, slot busy %v: %d chunks adopted, %v; want %d", tc.live, tc.busy, n, err, tc.adopted)
			}
			if held != tc.live-1 {
				t.Errorf("%d requests in flight, slot busy %v: %d slots held while decoding, want %d", tc.live, tc.busy, held, tc.live-1)
			}
		}
		s.live.Store(0)
	})
}

// TestCPUBudgetMetrics: /metrics carries the CPU budget's gauge and
// counter, and once the daemon is idle — a 197-server fleet registered and
// solved, two of its windows posted side by side — no slot is taken.
func TestCPUBudgetMetrics(t *testing.T) {
	window := window197(t)
	atProcs(4, func() {
		s := New(nil)
		defer s.Close()
		mustServe(t, s, http.MethodPost, "/v1/fleets", register197(t), http.StatusCreated)
		var wg sync.WaitGroup
		status := make([]int, 2)
		for i := range status {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status[i], _ = serve(t, s, http.MethodPost, "/v1/fleets/all-197/windows", window)
			}()
		}
		wg.Wait()
		for i, code := range status {
			if code != http.StatusOK {
				t.Errorf("window %d: status %d", i, code)
			}
		}
		text := string(mustServe(t, s, http.MethodGet, "/metrics", nil, http.StatusOK))
		for _, want := range []string{
			"\n# TYPE kairos_cpu_budget_in_use gauge\nkairos_cpu_budget_in_use 0\n",
			"\n# TYPE kairos_cpu_budget_denied_total counter\nkairos_cpu_budget_denied_total ",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	})
}
