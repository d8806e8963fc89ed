package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestReadmeNamesTheSuite: the README's analyzer tables (its "Static
// analysis" section) name exactly the analyzers Analyzers returns, so
// adding or deleting one cannot leave the docs behind.
func TestReadmeNamesTheSuite(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Static analysis\n")
	if !ok {
		t.Fatal(`README.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		// A table row whose first cell is a backticked name: | `name` | ... |
		if cell, ok := strings.CutPrefix(line, "| `"); ok {
			if name, _, ok := strings.Cut(cell, "` |"); ok {
				documented = append(documented, name)
			}
		}
	}
	var suite []string
	for _, a := range Analyzers() {
		suite = append(suite, a.Name)
	}
	slices.Sort(documented)
	slices.Sort(suite)
	if !slices.Equal(documented, suite) {
		t.Errorf("README.md's analyzer tables name %q, the suite is %q", documented, suite)
	}
}
