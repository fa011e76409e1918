package hcompress

import (
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsQuoteLiveNames keeps the prose from citing code that is gone:
// every backticked Go file path in README.md, DESIGN.md and
// EXPERIMENTS.md must exist, every backticked Test*, Benchmark* or
// Fuzz* name must be declared in some _test.go file of the repository,
// and every backticked hc_* metric series must be a string literal in
// some non-test Go file. A bare file name (no directory) may live in any
// directory; a name with "*" is a pattern that must match at least one
// declared name; a series may carry a label selector ({op=}) and brace
// alternatives (hc_x_{hits,misses}_total), each of which must exist.
func TestDocsQuoteLiveNames(t *testing.T) {
	files := map[string]bool{}     // repository-relative paths of .go files
	basenames := map[string]bool{} // their last elements
	declared := map[string]bool{}  // Test/Benchmark/Fuzz functions
	series := map[string]bool{}    // hc_* string literals in non-test code
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
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
			return nil
		}
		var s scanner.Scanner
		s.Init(token.NewFileSet().AddFile(p, -1, len(src)), src, nil, 0)
		for _, tok, lit := s.Scan(); tok != token.EOF; _, tok, lit = s.Scan() {
			if v, err := strconv.Unquote(lit); tok == token.STRING && err == nil && strings.HasPrefix(v, "hc_") {
				series[v] = true
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
	metric := regexp.MustCompile(`^(hc_[\w*{},]+?)(?:\{[^{}]*=[^{}]*\})?$`)
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
				if n := testName.FindStringSubmatch(quoted); n != nil && !nameMatch(declared, n[1]) {
					t.Errorf("%s:%d: `%s` is declared in no _test.go file", doc, i+1, quoted)
				}
				if n := metric.FindStringSubmatch(quoted); n != nil {
					for _, name := range expandBraces(n[1]) {
						if !nameMatch(series, name) {
							t.Errorf("%s:%d: `%s`: no non-test code registers %s", doc, i+1, quoted, name)
						}
					}
				}
			}
		}
	}
}

// nameMatch reports whether name, or the pattern it holds when it
// contains "*", names a member of declared.
func nameMatch(declared map[string]bool, name string) bool {
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

// expandBraces spells out the alternatives of each {a,b} group in name.
func expandBraces(name string) []string {
	i := strings.IndexByte(name, '{')
	j := strings.IndexByte(name, '}')
	if i < 0 || j < i {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[i+1:j], ",") {
		out = append(out, expandBraces(name[:i]+alt+name[j+1:])...)
	}
	return out
}
