package core

import (
	"cmp"
	"slices"
	"strings"
)

// machineOrder is newOrdered's: canon[i] is the caller's index of canonical
// machine i, pos[j] the canonical index of the caller's machine j; both nil
// for the caller's own order.
type machineOrder struct{ canon, pos []int }

// newOrdered validates p and returns an evaluator of it with its machines in
// canonical order, pins mapped, and the order: a plan depends on the
// hardware, not on how the caller listed it. One capacity class keeps the
// caller's order. Otherwise classes rank by the share of the fleet's peak
// aggregate CPU and RAM demand they hold in their binding resource, ties by
// capacity, largest first; machines are dealt one at a time, in that rank,
// from every class that still has machines and is not dominated (≤ in CPU,
// RAM and disk, and not equal) by another that still has; within a class
// they go by name, so a name-keyed incumbent finds them however the list is
// shuffled.
func newOrdered(p *Problem) (*Evaluator, machineOrder, error) {
	ev, err := NewEvaluator(p)
	if err != nil || ev.oneClass {
		return ev, machineOrder{}, err
	}
	type class struct {
		caps     [3]float64
		share    float64
		machines []int
	}
	var classes []*class
	byLow := make([]*class, len(p.Machines))
	for j, c := range ev.capClass {
		if int(c) == j {
			byLow[j] = &class{caps: [3]float64{ev.capCPU[j], ev.capRAM[j], ev.capDisk[j]}}
			classes = append(classes, byLow[j])
		}
		byLow[c].machines = append(byLow[c].machines, j)
	}
	cpuSum, ramSum, _, _ := ev.aggregate()
	for _, c := range classes {
		n := float64(len(c.machines))
		c.share = min(n*c.caps[0]/peak(cpuSum), n*c.caps[1]/peak(ramSum))
		slices.SortStableFunc(c.machines, func(a, b int) int { return strings.Compare(p.Machines[a].Name, p.Machines[b].Name) })
	}
	slices.SortStableFunc(classes, func(a, b *class) int {
		return cmp.Or(cmp.Compare(b.share, a.share), slices.Compare(b.caps[:], a.caps[:]))
	})
	o := machineOrder{pos: make([]int, len(p.Machines))}
	for len(o.canon) < len(p.Machines) {
		open := slices.DeleteFunc(slices.Clone(classes), func(c *class) bool { return len(c.machines) == 0 })
		for _, c := range open {
			if !slices.ContainsFunc(open, func(d *class) bool {
				return d.caps[0] >= c.caps[0] && d.caps[1] >= c.caps[1] && d.caps[2] >= c.caps[2] && d.caps != c.caps
			}) {
				o.canon = append(o.canon, c.machines[0])
				c.machines = c.machines[1:]
			}
		}
	}
	q := *p
	q.Machines = make([]Machine, len(o.canon))
	for i, j := range o.canon {
		o.pos[j] = i
		q.Machines[i] = p.Machines[j]
	}
	q.Workloads = slices.Clone(p.Workloads)
	for i, w := range q.Workloads {
		if w.PinTo >= 0 {
			q.Workloads[i].PinTo = o.pos[w.PinTo]
		}
	}
	ev, err = NewEvaluator(&q)
	return ev, o, err
}

// in returns inc with its machine indices mapped to the canonical order; an
// index outside the caller's list stays as it is (warmSeed skips it).
func (o machineOrder) in(inc *Incumbent) *Incumbent {
	if o.pos == nil {
		return inc
	}
	mapped := &Incumbent{K: inc.K, Units: slices.Clone(inc.Units)}
	for i, u := range mapped.Units {
		if u.Machine >= 0 && u.Machine < len(o.pos) {
			mapped.Units[i].Machine = o.pos[u.Machine]
		}
	}
	return mapped
}

// out maps a solution's Assign and Loads back to the caller's indices.
func (o machineOrder) out(sol *Solution, err error) (*Solution, error) {
	if o.canon == nil || sol == nil {
		return sol, err
	}
	for u, j := range sol.Assign {
		sol.Assign[u] = o.canon[j]
	}
	for i := range sol.Loads {
		sol.Loads[i].Machine = o.canon[sol.Loads[i].Machine]
	}
	return sol, err
}
