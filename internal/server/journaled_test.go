package server

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kairos/internal/journal"
)

// replayStats journals payloads, numbered from 1, replays them into a
// fresh server and returns what the replay counted: its timings and the
// record count, which every record moves, zeroed.
func replayStats(t *testing.T, payloads ...[]byte) RecoveryStats {
	t.Helper()
	dir := t.TempDir()
	appendRaw(t, dir, payloads...)
	rd, err := journal.OpenReader(dir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	s := New(t.Logf)
	defer s.Close()
	stats, err := s.replay(rd)
	if err != nil {
		t.Fatal(err)
	}
	stats.Elapsed, stats.RecordsDecode, stats.Records = 0, 0, 0
	return *stats
}

// TestReplayAppliesEveryRecordKind: every pointer field of RecordWire is a
// kind of record replay applies. Each has a minimal valid record below,
// after what it needs (an advance follows a window); a field with none fails
// by name, and each record, replayed after a registration and what it
// needs, must move a RecoveryStats counter or the registry.
func TestReplayAppliesEveryRecordKind(t *testing.T) {
	dir := t.TempDir()
	s, err := openDir(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		mustServe(t, s, http.MethodPost, "/v1/fleets", registerBody(id, 3, 6), http.StatusCreated)
	}
	if err := s.Kill(); err != nil {
		t.Fatal(err)
	}
	registered := journalRecords(t, dir)
	if len(registered) != 2 {
		t.Fatalf("%d journal records after two registrations", len(registered))
	}
	registerA := registered[0].Payload
	rw, err := decodeRecord(registerA)
	if err != nil {
		t.Fatal(err)
	}
	record := func(rw RecordWire) []byte {
		b, err := json.Marshal(rw)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	window := record(RecordWire{Window: &WindowRecord{Fleet: "a", Workloads: testWorkloads(3, 6, 1.0)}})
	records := map[string][][]byte{
		"Register":   {registerA, registered[1].Payload},
		"Window":     {registerA, window},
		"Advance":    {registerA, window, record(RecordWire{Advance: &AdvanceRecord{Fleet: "a", Incumbent: rw.Register.Incumbent}})},
		"Rearm":      {registerA, record(RecordWire{Rearm: &RearmRecord{Fleet: "a"}})},
		"Deregister": {registerA, record(RecordWire{Deregister: &DeregisterRecord{Fleet: "a"}})},
	}

	rt := reflect.TypeFor[RecordWire]()
	for i := range rt.NumField() {
		f := rt.Field(i)
		if f.Type.Kind() != reflect.Pointer {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			payloads, ok := records[f.Name]
			if !ok {
				t.Fatalf("RecordWire field %s has no record in this test: add one, and a replay case", f.Name)
			}
			before := replayStats(t, payloads[:len(payloads)-1]...)
			if got := replayStats(t, payloads...); got == before {
				t.Errorf("replaying a %s record moved nothing: %+v", f.Name, got)
			}
		})
	}
}

// TestJournaledTokenSources: a journaled token is made only where its claim
// holds — appendPayload, after the journal took the record, and replay,
// whose records were read back from it. Anywhere else, a journaled{}
// literal, new(journaled) or a conversion would let a mutation apply before
// its append; a token declared without a value (a var or a named result)
// may only be appendRecord's, returned beside an error.
func TestJournaledTokenSources(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	made, declared := map[string]int{}, map[string]int{}
	isToken := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "journaled"
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			where := "package scope of " + name
			if fd, ok := decl.(*ast.FuncDecl); ok {
				where = fd.Name.Name
				if res := fd.Type.Results; res != nil {
					for _, r := range res.List {
						if isToken(r.Type) && len(r.Names) > 0 {
							declared[where]++
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isToken(n.Type) {
						made[where]++
					}
				case *ast.CallExpr:
					if isToken(n.Fun) || len(n.Args) == 1 && isToken(n.Args[0]) {
						made[where]++
					}
				case *ast.ValueSpec:
					if n.Type != nil && isToken(n.Type) && len(n.Values) == 0 {
						declared[where]++
					}
				}
				return true
			})
		}
	}
	if got := sortedKeys(made); !slices.Equal(got, []string{"appendPayload", "replay"}) {
		t.Errorf("journaled tokens are made in %q, want only appendPayload and replay", got)
	}
	if got := sortedKeys(declared); len(got) > 0 && !slices.Equal(got, []string{"appendRecord"}) {
		t.Errorf("journaled tokens are declared without a value in %q, want at most appendRecord", got)
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
