package walorder_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kairos/internal/lint/analysis"
	"kairos/internal/lint/analysistest"
	"kairos/internal/lint/lintutil"
	"kairos/internal/lint/walorder"
)

func TestWalorder(t *testing.T) {
	analysistest.Run(t, "testdata", walorder.Analyzer, "walfix")
}

// serverFindings runs walorder over the real internal/server package,
// with mutate applied to the source of each file first, and returns the
// findings' messages. imp resolves (and caches) the package's imports.
func serverFindings(t *testing.T, fset *token.FileSet, imp types.Importer, mutate func(name, src string) string) []string {
	t.Helper()
	dir := filepath.Join("..", "..", "server")
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("listing %s: %v (%d files)", dir, err, len(names))
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, mutate(filepath.Base(name), string(src)), parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	const path = "kairos/internal/server"
	pkg, info, err := lintutil.TypeCheck(fset, imp, path, files)
	if err != nil {
		t.Fatalf("type-checking %s: %v", path, err)
	}
	var out []string
	prog := &analysis.Program{
		Fset:     fset,
		Packages: []*analysis.ProgramPackage{{Path: path, Files: files, Pkg: pkg, TypesInfo: info}},
		Report:   func(d analysis.Diagnostic) { out = append(out, d.Message) },
	}
	if err := walorder.Analyzer.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWalorderRealTreeMutations is the analyzer's proof on the code it
// guards rather than on a fixture: the shipped control plane is clean,
// and each way of breaking the WAL contract by hand — journaling the
// window after it entered the ack ring, dropping a replay case — is a
// finding.
func TestWalorderRealTreeMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/server and its imports from source")
	}
	// One importer for every variant: the imports (net/http, the solver)
	// are type-checked from source once, the server package each time.
	fset := token.NewFileSet()
	imp := lintutil.NewImporter(fset)
	if got := serverFindings(t, fset, imp, func(_, src string) string { return src }); len(got) != 0 {
		t.Fatalf("the shipped tree has walorder findings: %q", got)
	}

	// swap replaces old, which must occur n times in src, with repl.
	swap := func(src, old, repl string, n int) string {
		if strings.Count(src, old) != n {
			t.Fatalf("the server no longer contains %d × %q: update the mutation", n, old)
		}
		return strings.ReplaceAll(src, old, repl)
	}
	const (
		windowAppend = `	if err := s.appendPayload(req.record...); err != nil {
		return ingestResp{journalErr: fmt.Errorf("journaling window: %w", err)}
	}
`
		// The ack ring is written inside applyWindow, which both the live
		// path and replay call: the ordering is checked where processWindow
		// calls it.
		apply = `	index, fired, err := sess.applyWindow(req.window, key)
`
		unordered = " acks a mutation on a path with no prior appendRecord/appendPayload"
	)
	for _, tc := range []struct {
		name   string
		file   string
		mutate func(src string) string
		want   string
		count  int
	}{
		{"window journaled after the ack ring", "server.go", func(src string) string {
			return swap(swap(src, windowAppend, "", 1), apply, apply+windowAppend, 1)
		}, "applyWindow" + unordered, 1},
		{"deregistration journaled after its 204", "server.go", func(src string) string {
			// writeNoContent's marker is the prose form in the real tree.
			const journal = "s.appendRecord(&RecordWire{Deregister: &DeregisterRecord{Fleet: id}})"
			src = swap(src, "if err := "+journal+"; err != nil {", "if err := error(nil); err != nil {", 1)
			return swap(src, "\twriteNoContent(w)\n", "\twriteNoContent(w)\n\t_ = "+journal+"\n", 1)
		}, unordered, 2}, // the registry delete (applyDeregisterLocked) and the 204
		{"rearm replay case disabled", "recovery.go", func(src string) string {
			return swap(src, "case rw.Rearm != nil:", "case rw.Rearm != nil && replayRearms:", 1) + "\nconst replayRearms = true\n"
		}, "RecordWire field Rearm has no replay case", 1},
		{"window record head no longer written", "windowdec.go", func(src string) string {
			return swap(src, "&RecordWire{Window: &WindowRecord{Fleet: id}}", "nil", 1)
		}, "RecordWire field Window is never journaled", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := serverFindings(t, fset, imp, func(name, src string) string {
				if name == tc.file {
					src = tc.mutate(src)
				}
				return src
			})
			n := 0
			for _, msg := range got {
				if strings.Contains(msg, tc.want) {
					n++
				}
			}
			if n != tc.count || len(got) != tc.count {
				t.Errorf("findings %q, want %d × %q", got, tc.count, tc.want)
			}
		})
	}
}
