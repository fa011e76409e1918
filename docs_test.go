package hcompress

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsQuoteLiveNames keeps the prose from citing code that is gone:
// every backticked Go file path in README.md, DESIGN.md and
// EXPERIMENTS.md must exist, and every backticked Test*, Benchmark* or
// Fuzz* name must be declared in some _test.go file of the repository.
// A bare file name (no directory) may live in any directory; a name
// with "*" is a pattern that must match at least one declared test.
func TestDocsQuoteLiveNames(t *testing.T) {
	files := map[string]bool{}     // repository-relative paths of .go files
	basenames := map[string]bool{} // their last elements
	declared := map[string]bool{}  // Test/Benchmark/Fuzz functions
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		files[filepath.ToSlash(p)] = true
		basenames[d.Name()] = true
		if strings.HasSuffix(p, "_test.go") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	span := regexp.MustCompile("`([^`\n]+)`")
	goPath := regexp.MustCompile(`^([\w./-]+\.go)(?::\d+)?$`)
	testName := regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[\w*]*)(?:/\S*)?$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				quoted := m[1]
				if g := goPath.FindStringSubmatch(quoted); g != nil {
					p := strings.TrimPrefix(g[1], "./")
					if !files[p] && (strings.Contains(p, "/") || !basenames[p]) {
						t.Errorf("%s:%d: `%s` names no file in the repository", doc, i+1, quoted)
					}
				}
				if n := testName.FindStringSubmatch(quoted); n != nil && !declaredMatch(declared, n[1]) {
					t.Errorf("%s:%d: `%s` is declared in no _test.go file", doc, i+1, quoted)
				}
			}
		}
	}
}

// declaredMatch reports whether name, or the pattern it holds when it
// contains "*", names a declared test function.
func declaredMatch(declared map[string]bool, name string) bool {
	if !strings.Contains(name, "*") {
		return declared[name]
	}
	for d := range declared {
		if ok, _ := filepath.Match(name, d); ok {
			return true
		}
	}
	return false
}
