package kairos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSpawnSitesListed: README's spawn-site table (Static analysis) names
// every go statement of the library — outside main packages, tests,
// testdata and the benchmark's own module, bench/ — by its file and the
// function it is in, and names no site that is gone. A new goroutine
// comes with its row: its join and the test that holds it.
func TestSpawnSitesListed(t *testing.T) {
	type site struct{ path, fn string }
	listed := map[site]bool{}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("`([^`]+)`")
	inTable := false
	for _, line := range strings.Split(string(readme), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "| spawn site | joined by |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "| ---") {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		names := code.FindAllStringSubmatch(strings.Split(line, "|")[1], 2)
		if len(names) < 2 || !strings.HasSuffix(names[0][1], ".go") {
			t.Fatalf("spawn-site row %q does not begin with a file and a function in backticks", line)
		}
		listed[site{names[0][1], names[1][1]}] = true
	}
	if len(listed) == 0 {
		t.Fatal("README has no spawn-site table")
	}

	found := map[site]token.Position{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path == "bench" || name == "testdata" || strings.HasPrefix(name, ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			fn := "(package level)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					found[site{filepath.ToSlash(path), fn}] = fset.Position(g.Pos())
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for s, pos := range found {
		if !listed[s] {
			t.Errorf("%v: go statement in %s's %s has no row in README's spawn-site table", pos, s.path, s.fn)
		}
	}
	for s := range listed {
		if _, ok := found[s]; !ok {
			t.Errorf("README's spawn-site table lists %s's %s, which starts no goroutine", s.path, s.fn)
		}
	}
}
