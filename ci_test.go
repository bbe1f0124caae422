package bdps

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsResolve: every alternative of a -run pattern in a CI
// test step (a race soak, the allocation budget) matches a Test or Fuzz
// function in the packages that step names, so renaming a test cannot
// silently drop it from its step.
func TestCIRunPatternsResolve(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runArg := regexp.MustCompile(`-run '([^']*)'`)
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	steps := 0
	for _, line := range strings.Split(string(yml), "\n") {
		cmd, ok := strings.CutPrefix(strings.TrimSpace(line), "run: ")
		if !ok || !strings.Contains(cmd, "go test") {
			continue
		}
		m := runArg.FindStringSubmatch(cmd)
		if m == nil || m[1] == "^$" {
			continue // no pattern, or one that selects no test (fuzz and benchmark steps)
		}
		steps++
		var names []string
		for _, arg := range strings.Fields(cmd) {
			if !strings.HasPrefix(arg, "./") {
				continue
			}
			files, err := filepath.Glob(filepath.Join(arg, "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Errorf("%s: package %s has no test files", cmd, arg)
				continue
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, fm := range testFunc.FindAllStringSubmatch(string(src), -1) {
					names = append(names, fm[1])
				}
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run alternative %q: %v", alt, err)
				continue
			}
			found := false
			for _, name := range names {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("-run alternative %q matches no test in the packages of %q", alt, cmd)
			}
		}
	}
	if steps == 0 {
		t.Fatal("found no test step with a -run pattern")
	}
}
