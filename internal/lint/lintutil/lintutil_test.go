package lintutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// lineEnd returns a Pos on the given 1-based line of the single file.
func linePos(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}

func TestSuppressionsWaiverGrammar(t *testing.T) {
	fset, files := parseSrc(t, `package p

var a = 1 //kairoslint:allow errflow: scratch capacity retained
var b = 2 //kairoslint:allow lockguard floatdet: two analyzers, one reason
var c = 3 //kairoslint:allow errflow
var d = 4 //kairoslint:allow errflow (old parenthesized style)
var e = 5 //kairoslint:allowother not a waiver at all
var f = 6 //kairoslint:allow : reason but no analyzer
`)
	s := NewSuppressions(fset, files)

	// Well-formed waivers suppress exactly the named analyzers.
	if !s.Allowed(linePos(fset, 3), "errflow") {
		t.Error("line 3: errflow should be allowed")
	}
	if s.Allowed(linePos(fset, 3), "lockguard") {
		t.Error("line 3: lockguard should not be allowed")
	}
	if !s.Allowed(linePos(fset, 4), "lockguard") || !s.Allowed(linePos(fset, 4), "floatdet") {
		t.Error("line 4: both named analyzers should be allowed")
	}

	// Reasonless waivers still suppress (no double report of the original
	// finding) but are recorded as bad.
	if !s.Allowed(linePos(fset, 5), "errflow") {
		t.Error("line 5: reasonless waiver should still suppress")
	}

	bad := s.Bad()
	if len(bad) != 3 {
		for _, bw := range bad {
			t.Logf("bad: %s %q", fset.Position(bw.Pos), bw.Text)
		}
		t.Fatalf("got %d bad waivers, want 3 (lines 5, 6, 8)", len(bad))
	}
	wantLines := []int{5, 6, 8}
	seen := map[int]bool{}
	for _, bw := range bad {
		seen[fset.Position(bw.Pos).Line] = true
	}
	for _, l := range wantLines {
		if !seen[l] {
			t.Errorf("line %d should be a bad waiver", l)
		}
	}
	if seen[7] {
		t.Error("line 7 (kairoslint:allowother) is not an allow directive")
	}
}

func TestSuppressionsStandaloneCoversNextLine(t *testing.T) {
	fset, files := parseSrc(t, `package p

//kairoslint:allow errflow: the call line is too long for a trailing comment
var a = 1
var b = 2 //kairoslint:allow floatdet: trailing stays line-scoped
var c = 3
`)
	s := NewSuppressions(fset, files)
	if !s.Allowed(linePos(fset, 4), "errflow") {
		t.Error("standalone waiver should cover the next line")
	}
	if s.Allowed(linePos(fset, 5), "errflow") {
		t.Error("standalone waiver should not reach two lines down")
	}
	if s.Allowed(linePos(fset, 6), "floatdet") {
		t.Error("a trailing waiver shares its line with code and stays there")
	}
	if len(s.Bad()) != 0 {
		t.Errorf("got %d bad waivers, want 0", len(s.Bad()))
	}
}

// TestSuppressionsRecordMatches: Unmatched lists the directives no
// Allowed call matched — a waiver for another analyzer, or on another
// line, does not count.
func TestSuppressionsRecordMatches(t *testing.T) {
	fset, files := parseSrc(t, `package p

//kairoslint:allow errflow: matched through the line below
var a = 1
var b = 2 //kairoslint:allow floatdet: asked about for errflow only
var c = 3 //kairoslint:allow lockguard: never asked about
`)
	s := NewSuppressions(fset, files)
	s.Allowed(linePos(fset, 4), "errflow")
	s.Allowed(linePos(fset, 5), "errflow")
	var lines []int
	for _, pos := range s.Unmatched() {
		lines = append(lines, fset.Position(pos).Line)
	}
	if len(lines) != 2 || lines[0] != 5 || lines[1] != 6 {
		t.Errorf("unmatched directives on lines %v, want [5 6]", lines)
	}
}

func TestSuppressionsReasonWithColon(t *testing.T) {
	fset, files := parseSrc(t, `package p

var a = 1 //kairoslint:allow errflow: amortized: capacity kept across calls
`)
	s := NewSuppressions(fset, files)
	if !s.Allowed(linePos(fset, 3), "errflow") {
		t.Error("waiver with a colon inside the reason should still parse")
	}
	if len(s.Bad()) != 0 {
		t.Errorf("got %d bad waivers, want 0", len(s.Bad()))
	}
}

func TestHasMarkerWholeLineOnly(t *testing.T) {
	fset, files := parseSrc(t, `package p

//kairos:locked
func hot() {}

// prose mentioning //kairos:locked inline
func cold() {}
`)
	_ = fset
	var hot, cold *ast.FuncDecl
	for _, d := range files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			switch fd.Name.Name {
			case "hot":
				hot = fd
			case "cold":
				cold = fd
			}
		}
	}
	if !HasMarker(hot.Doc, "kairos:locked") {
		t.Error("whole-line directive should match")
	}
	if HasMarker(cold.Doc, "kairos:locked") {
		t.Error("inline mention should not match")
	}
}

// TestHasMarkerWithProse: a directive may carry prose after it on the
// same line, but the marker must still be the whole first word.
func TestHasMarkerWithProse(t *testing.T) {
	_, files := parseSrc(t, `package p

// hot documents its contract on the directive line.
//
//kairos:locked — callers hold mu
func hot() {}

//kairos:locked	tab-separated prose
func tabbed() {}

//kairos:lockedout is some other directive
func other() {}

//kairos:locked-ish is too
func hyphenated() {}

// kairos:locked with a space after the slashes is prose, not a directive
func spaced() {}
`)
	want := map[string]bool{"hot": true, "tabbed": true, "other": false, "hyphenated": false, "spaced": false}
	for _, d := range files[0].Decls {
		fd := d.(*ast.FuncDecl)
		if got := HasMarker(fd.Doc, "kairos:locked"); got != want[fd.Name.Name] {
			t.Errorf("HasMarker(%s) = %v, want %v", fd.Name.Name, got, want[fd.Name.Name])
		}
	}
}

func TestGuardedBy(t *testing.T) {
	fset, files := parseSrc(t, `package p

import "sync"

type s struct {
	mu sync.Mutex
	n  int // guarded by mu
}
`)
	_ = fset
	st := files[0].Decls[1].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType)
	var nField *ast.Field
	for _, f := range st.Fields.List {
		if len(f.Names) == 1 && f.Names[0].Name == "n" {
			nField = f
		}
	}
	mu, ok := GuardedBy(nField.Doc, nField.Comment)
	if !ok || mu != "mu" {
		t.Errorf("GuardedBy = %q, %v; want mu, true", mu, ok)
	}
	if _, ok := GuardedBy(nil); ok {
		t.Error("no comment groups should yield no guard")
	}
}

func TestSuppressionsIgnoresProse(t *testing.T) {
	fset, files := parseSrc(t, strings.Join([]string{
		"package p",
		"",
		"// The //kairoslint:allow escape hatch is documented elsewhere.",
		"var a = 1",
	}, "\n"))
	s := NewSuppressions(fset, files)
	if len(s.Bad()) != 0 {
		t.Errorf("prose mentioning the directive inside a comment should not count, got %d bad", len(s.Bad()))
	}
	if s.Allowed(linePos(fset, 3), "allow") {
		t.Error("prose line should not suppress anything")
	}
}
