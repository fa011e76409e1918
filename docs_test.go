package hcompress

import (
	"go/ast"
	"go/parser"
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

// TestDocsQuoteLiveFlags keeps the prose from citing command flags that
// are gone: every -flag handed to hcbench, hctool or hcprofiler in
// README.md, DESIGN.md or EXPERIMENTS.md — in a backticked command, or
// on a `go run ./cmd/<name>` line of a fenced block — must be defined by
// a flag.*("name", …) call in that command's cmd/<name>/main.go.
func TestDocsQuoteLiveFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, cmd := range []string{"hcbench", "hctool", "hcprofiler"} {
		defined[cmd] = commandFlags(t, filepath.Join("cmd", cmd, "main.go"))
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	quoted := regexp.MustCompile(`^(?:go run \./cmd/)?(hcbench|hctool|hcprofiler)\s(.*)$`)
	fenced := regexp.MustCompile(`go run \./cmd/(hcbench|hctool|hcprofiler)\s(.*)$`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			var calls [][]string
			if inFence {
				if m := fenced.FindStringSubmatch(line); m != nil {
					calls = append(calls, m)
				}
			} else {
				for _, m := range span.FindAllStringSubmatch(line, -1) {
					if c := quoted.FindStringSubmatch(m[1]); c != nil {
						calls = append(calls, c)
					}
				}
			}
			for _, c := range calls {
				args, _, _ := strings.Cut(c[2], "#") // a trailing shell comment
				for _, arg := range strings.Fields(args) {
					name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					if !strings.HasPrefix(arg, "-") || name == "" {
						continue
					}
					checked++
					if !defined[c[1]][name] {
						t.Errorf("%s:%d: %s defines no flag -%s", doc, i+1, c[1], name)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no command flag quoted in the docs: the gate checks nothing")
	}
}

// commandFlags returns the flag names a command's main.go defines: the
// string literal that names the flag in each flag.*(…) call, first
// argument (flag.String("v", …)) or second (flag.StringVar(&v, "v", …)).
func commandFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !isIdent(sel.X, "flag") {
			return true
		}
		for _, arg := range call.Args[:min(2, len(call.Args))] {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names[name] = true
				break
			}
		}
		return true
	})
	return names
}

// isIdent reports whether x is the identifier name.
func isIdent(x ast.Expr, name string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
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
