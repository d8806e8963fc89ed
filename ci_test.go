package kairos

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunsMakeTargets: every command the CI workflow runs is `make
// <target>` for a target the Makefile defines, so the Makefile is the one
// list of commands and test regexes. The one exception is the line that
// registers kairoslint's problem matcher, which is a workflow command,
// not a build step. The Makefile's ci target, the local mirror, runs
// exactly the workflow's targets but vulncheck, which needs the network.
func TestCIRunsMakeTargets(t *testing.T) {
	const matcher = `echo "::add-matcher::.github/kairoslint-problem-matcher.json"`
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	makeCmd := regexp.MustCompile(`^make ([a-z][a-z0-9-]*)$`)
	var ran []string // the targets ci.yml runs, but vulncheck
	check := func(n int, cmd string) {
		if cmd == matcher {
			return
		}
		if m := makeCmd.FindStringSubmatch(cmd); m == nil {
			t.Errorf("ci.yml:%d: run %q is not `make <target>`; add a Makefile target and run that", n, cmd)
		} else if !targets[m[1]] {
			t.Errorf("ci.yml:%d: run %q names no Makefile target", n, cmd)
		} else if m[1] != "vulncheck" {
			ran = append(ran, m[1])
		}
	}
	lines := strings.Split(string(ci), "\n")
	runs := 0
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		trimmed := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		if !strings.HasPrefix(trimmed, "run:") {
			continue
		}
		runs++
		cmd := strings.TrimSpace(strings.TrimPrefix(trimmed, "run:"))
		if !strings.HasPrefix(cmd, "|") && !strings.HasPrefix(cmd, ">") {
			check(i+1, cmd)
			continue
		}
		// A block scalar: every line indented past the run: key is a command.
		indent := len(line) - len(strings.TrimLeft(line, " "))
		for i+1 < len(lines) {
			next := lines[i+1]
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= indent {
				break
			}
			i++
			if cmd := strings.TrimSpace(next); cmd != "" {
				check(i+1, cmd)
			}
		}
	}
	if runs == 0 {
		t.Fatal("ci.yml has no run: steps")
	}
	m := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no ci target")
	}
	mirror := strings.Fields(string(m[1]))
	slices.Sort(mirror)
	slices.Sort(ran)
	if !slices.Equal(mirror, ran) {
		t.Errorf("make ci runs %v; ci.yml runs %v (vulncheck aside)", mirror, ran)
	}
}
