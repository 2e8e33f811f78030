package p2b

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciPath captures what .github/workflows/ci.yml names inside this
// repository: anything written ./like/this, and bare paths under the
// directories jobs and their comments point into. The leading class keeps
// the tail of a longer path (the cmd/ in a `go install` module path) from
// counting as one.
var ciPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./~-])((?:\./|(?:scripts|testdata|internal|cmd|benchmark|agent)/)[A-Za-z0-9_./*-]*)`)

// TestCIWorkflowNamesOnlyPathsThatExist keeps ci.yml from outliving the
// tree: a job that runs a deleted script or tests a moved package fails
// only on the hosted runner, after the merge. Every script, package
// directory, composite action, baseline and Go file the workflow names —
// in a step or in a comment — must exist in the checkout.
func TestCIWorkflowNamesOnlyPathsThatExist(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// Build and artifact outputs the jobs create themselves.
	produced := []string{"./...", "./bin/", "benchmark/out/"}
	checked := map[string]bool{}
next:
	for _, sub := range ciPath.FindAllStringSubmatch(string(blob), -1) {
		m := sub[1]
		for _, p := range produced {
			if strings.HasPrefix(m, p) {
				continue next
			}
		}
		// "cmd/p2bvet/**" (hashFiles) names the directory; sentence
		// punctuation after a path in a comment is not part of it.
		path := strings.TrimRight(strings.TrimSuffix(m, "**"), "/.")
		if path == "" || checked[path] {
			continue
		}
		checked[path] = true
		if hits, err := filepath.Glob(path); err != nil || len(hits) == 0 {
			t.Errorf("ci.yml names %q, which does not exist in the repository", m)
		}
	}
	// Non-vacuity: the pattern really is reading the workflow.
	for _, want := range []string{"./scripts/topology_equiv.sh", "./benchmark", "./.github/actions/go-setup", "testdata/coverage_floor.txt"} {
		if !checked[want] {
			t.Errorf("the path scan no longer sees %q in ci.yml", want)
		}
	}
}
