package unit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"

	"kairos/internal/core"
	"kairos/internal/disk"
	"kairos/internal/model"
	"kairos/internal/unit"
)

// TestGuardedFieldsCarryUnits: the machine description and the disk model
// carry their quantities in unit types. A field turned back into a float64,
// or into another unit, fails here by name.
func TestGuardedFieldsCarryUnits(t *testing.T) {
	for _, tc := range []struct {
		of    any
		field string
		want  any
	}{
		{core.Machine{}, "CPUCapacity", unit.TargetCPU(0)},
		{core.Machine{}, "RAMBytes", unit.Bytes(0)},
		{core.Machine{}, "DiskWriteBps", unit.Bps(0)},
		{core.Machine{}, "Headroom", unit.Frac(0)},
		{disk.Params{}, "SeqWriteMBps", unit.MBps(0)},
		{disk.Params{}, "SeqReadMBps", unit.MBps(0)},
		{disk.Params{}, "FullSeekMs", unit.Ms(0)},
		{disk.Params{}, "TrackToTrackMs", unit.Ms(0)},
		{model.ProfilePoint{}, "WSMB", unit.MB(0)},
		{model.ProfilePoint{}, "DemandRows", unit.RowsPerSec(0)},
		{model.ProfilePoint{}, "AchievedRows", unit.RowsPerSec(0)},
		{model.ProfilePoint{}, "WriteMBps", unit.MBps(0)},
		{model.DiskProfile{}, "WSMinMB", unit.MB(0)},
		{model.DiskProfile{}, "WSMaxMB", unit.MB(0)},
	} {
		f, ok := reflect.TypeOf(tc.of).FieldByName(tc.field)
		if want := reflect.TypeOf(tc.want); !ok || f.Type != want {
			t.Errorf("%T.%s is %v, want %v", tc.of, tc.field, f.Type, want)
		}
	}
}

// TestUnitMixesDoNotCompile type-checks snippets against unit.go: a mix of
// two units fails, which it would not were a unit type an alias of
// float64, and a conversion written out compiles. The package imports
// nothing, so no importer is needed.
func TestUnitMixesDoNotCompile(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       string // a substring of the type error; "" means it compiles
	}{
		{"MB + RowsPerSec", `func f(ws MB, r RowsPerSec) MB { return ws + r }`, "mismatched types"},
		{"Bytes compared with Bps", `func f(b Bytes, r Bps) bool { return b == r }`, "mismatched types"},
		{"MBps assigned to RowsPerSec", `func f(w MBps) (r RowsPerSec) { r = w; return }`, "cannot use w"},
		{"well typed", `func f(a, b MB, w Bytes, r RowsPerSec) (MB, bool) { return a + b/2 + MB(w/1e6), r > 0 }`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []*ast.File
			for name, src := range map[string]any{"unit.go": nil, "snippet.go": "package unit\n" + tc.body} {
				f, err := parser.ParseFile(fset, name, src, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			_, err := (&types.Config{}).Check("kairos/internal/unit", fset, files, nil)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("well-typed snippet does not compile: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("snippet compiles; want a type error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("type error %q, want one containing %q", err, tc.want)
			}
		})
	}
}
