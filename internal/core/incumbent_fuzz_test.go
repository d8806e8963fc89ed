package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"kairos/internal/series"
)

// incumbentProblems are the small fixed problems FuzzLoadIncumbent
// warm-starts from what it loads: five named workloads (one with two
// replicas, one pinned) on three named machines, matched by name; and the
// same with a repeated workload name and unnamed machines, matched by
// index.
func incumbentProblems() []*Problem {
	start := time.Unix(0, 0)
	var named Problem
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		w := Workload{
			Name:     name,
			CPU:      series.Constant(start, 5*time.Minute, 6, 0.1+0.05*float64(i)),
			RAMBytes: series.Constant(start, 5*time.Minute, 6, 2e9),
			PinTo:    -1,
		}
		if i == 1 {
			w.Replicas = 2
		}
		if i == 4 {
			w.PinTo = 1
		}
		named.Workloads = append(named.Workloads, w)
	}
	for _, name := range []string{"m0", "m1", "m2"} {
		named.Machines = append(named.Machines, Machine{Name: name, CPUCapacity: 1, RAMBytes: 16e9})
	}
	byIndex := named
	byIndex.Workloads = append([]Workload(nil), named.Workloads...)
	byIndex.Workloads[3].Name = "a"
	byIndex.Machines = append([]Machine(nil), named.Machines...)
	for j := range byIndex.Machines {
		byIndex.Machines[j].Name = ""
	}
	return []*Problem{&named, &byIndex}
}

// FuzzLoadIncumbent feeds LoadIncumbent arbitrary bytes: it never panics;
// what it loads survives Save → LoadIncumbent, which from then on is the
// identity; and it warm-starts PriceIncumbent and Resolve, capped and not,
// on incumbentProblems without a panic and into a plan inside the machines
// there are — whatever the units hold: negative or huge machines, indexes
// and replicas, repeated units, K past the machine count.
func FuzzLoadIncumbent(f *testing.F) {
	for _, seed := range []string{
		`{"k":2,"units":[{"workload":"a","index":0,"replica":0,"machine":0,"machine_name":"m0"},{"workload":"b","index":1,"replica":1,"machine":1}]}`,
		`{"k":3,"units":[{"workload":"a","machine":-1},{"workload":"b","replica":-5,"machine":9223372036854775807},{"index":-3},{"index":99,"machine":2}]}`,
		`{"k":9223372036854775807,"units":[{"workload":"c","machine":1},{"workload":"c","machine":2},{"workload":"c","machine":0,"machine_name":"gone"}]}`,
		`{"k":1,"units":[null,{}]}`, `{"k":0,"units":[{}]}`, `{"k":-1,"units":[{}]}`, `{"k":1,"units":[]}`, `{"k":1.5,"units":[{}]}`,
		`{"k":1,"units":[{"workload":"\ud800é","machine_name":"m1"}]}` + "\n{trailing", "", `null`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	problems := incumbentProblems()
	f.Fuzz(func(t *testing.T, data []byte) {
		inc, err := LoadIncumbent(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := inc.Save(&saved); err != nil {
			t.Fatalf("saving %+v: %v", inc, err)
		}
		first := bytes.Clone(saved.Bytes())
		again, err := LoadIncumbent(&saved)
		if err != nil {
			t.Fatalf("a saved incumbent does not load: %v\n%s", err, first)
		}
		saved.Reset()
		if err := again.Save(&saved); err != nil || !bytes.Equal(saved.Bytes(), first) {
			t.Fatalf("saving what was loaded back: %v\n%s\nwant\n%s", err, saved.Bytes(), first)
		}

		for _, p := range problems {
			if _, _, K, err := PriceIncumbent(p, inc); err != nil || K < 1 || K > len(p.Machines) {
				t.Fatalf("PriceIncumbent: K %d, %v", K, err)
			}
			for _, cap := range []int{0, 1} {
				opt := DefaultResolveOptions()
				opt.MaxMigrations = cap
				sol, err := Resolve(context.Background(), p, inc, opt)
				if err != nil {
					t.Fatalf("Resolve, cap %d: %v", cap, err)
				}
				for u, j := range sol.Assign {
					if j < 0 || j >= sol.K || sol.K > len(p.Machines) {
						t.Fatalf("Resolve, cap %d: unit %d on machine %d of K %d", cap, u, j, sol.K)
					}
				}
			}
		}
	})
}
