package hcompress

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The surface ratchet. Every exported name under internal/ and every
// option field must earn its place: an identifier is used from a
// non-test file of another package, and a field of an option struct is
// set by non-test code to a value it chose (filling in a default does not
// count). What is not, and is not listed below with the need it serves,
// fails TestSurfaceRatchet, so unused API cannot build up again between
// deletion rounds.

// surfaceIdentAllow lists exported top-level identifiers under internal/
// that stay exported without a non-test use from another package.
var surfaceIdentAllow = map[string]string{
	"hcompress/internal/bufpool.SetDebug": "test-only switch for the arena's double-put guard; the guard is safety code that tests in other packages turn on",
}

// surfaceFieldAllow lists option fields that no non-test code sets; an
// entry naming a struct covers all of its fields.
var surfaceFieldAllow = map[string]string{
	"hcompress.Config.MonitorIntervalSec":               "bench/probe_core.go and probe_monitor.go read it to build a System Monitor the way a shard does",
	"hcompress/internal/core.Config.LoadAware":          "the paper's SM load term; ROADMAP item 11(c) feeds it measured backlog, BenchmarkAblationLoadAware prices it",
	"hcompress/internal/experiments.Fig6Options.Codecs": "TestFig6Shape sweeps four of the eight libraries to stay fast, and the shape tests stay unedited",
	"hcompress/internal/service.Config":                 "operator policy (tenants, quotas, rate limits, SLO); bench/probe_service.go serves the zero value and the service tests set each field",
	"hcompress/internal/service.TenantSpec":             "operator policy: one tenant's quota and rate limit inside service.Config.Tenants",
}

// surfaceReport is what one scan finds: sorted keys of the form
// "pkg.Name" (identifiers) and "pkg.Type.Field" (option fields).
type surfaceReport struct {
	idents []string
	fields []string
}

// surfaceScanner type-checks whole modules, test files included, with
// one shared source importer, and records which declarations are used
// or set from where.
type surfaceScanner struct {
	fset          *token.FileSet
	imp           types.ImporterFrom
	internal      string          // import-path prefix whose exported names are checked
	public        string          // import path of the public API package, if any
	publicOptions map[string]bool // the public package's option types

	// Declarations, filled from the non-test files of each package.
	declared  map[string]types.Object // "pkg.Name" → object, under the internal prefix
	owner     map[string]string       // field/method position → owning "pkg.Type"
	optFields map[string]string       // option field position → "pkg.Type.Field"

	// Uses, from every file of every package.
	usedNonTest  map[string]bool // "pkg.Name" used from a non-test file of another package
	usedAnywhere map[string]bool // "pkg.Name" used from any file of another package
	usedInPkg    map[string]bool // "pkg.Name" used from a non-test file of its own package
	ownerUse     map[string]bool // field/method position used from a non-test file of another package
	fieldSet     map[string]bool // field position set as setField counts it
}

// newSurfaceScanner starts an empty scan that shares fset and imp, so
// packages the importer has already checked are not checked again.
// Declarations are collected from packages whose import path starts with
// internal, and option fields also from public's types in publicOptions.
func newSurfaceScanner(fset *token.FileSet, imp types.ImporterFrom, internal, public string, publicOptions map[string]bool) *surfaceScanner {
	return &surfaceScanner{
		fset:          fset,
		imp:           imp,
		internal:      internal,
		public:        public,
		publicOptions: publicOptions,
		declared:      map[string]types.Object{},
		owner:         map[string]string{},
		optFields:     map[string]string{},
		usedNonTest:   map[string]bool{},
		usedAnywhere:  map[string]bool{},
		usedInPkg:     map[string]bool{},
		ownerUse:      map[string]bool{},
		fieldSet:      map[string]bool{},
	}
}

// surfaceUnit is one type-checked package: a package with its in-package
// test files, or an external _test package.
type surfaceUnit struct {
	path  string // import path of the package the files belong to
	files []*ast.File
	test  map[*ast.File]bool
}

// scan type-checks the module rooted at dir (nested modules are skipped;
// scan them separately) and returns an error on the first type error.
// The source importer resolves module paths with "go list" in the working
// directory, so the test changes into dir first.
func (s *surfaceScanner) scan(t *testing.T, dir string) error {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	t.Chdir(dir)
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	modPath := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
			break
		}
	}
	if modPath == "" {
		return fmt.Errorf("%s/go.mod: no module line", dir)
	}
	return filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(p, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if err := s.check(p, path, bp.GoFiles, bp.TestGoFiles); err != nil {
			return err
		}
		if len(bp.XTestGoFiles) > 0 {
			return s.check(p, path+"_test", nil, bp.XTestGoFiles)
		}
		return nil
	})
}

// check type-checks one package unit and records what it declares and uses.
func (s *surfaceScanner) check(dir, path string, goFiles, testFiles []string) error {
	u := surfaceUnit{path: path, test: map[*ast.File]bool{}}
	for i, names := range [][]string{goFiles, testFiles} {
		for _, name := range names {
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			u.files = append(u.files, f)
			u.test[f] = i == 1
		}
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s.imp}
	pkg, err := conf.Check(path, s.fset, u.files, info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %w", path, err)
	}
	if strings.HasPrefix(path, s.internal) || path == s.public {
		s.declare(u, pkg)
	}
	s.record(u, info)
	return nil
}

// pos keys a declaration by file and offset, which is the same for the
// copy the importer checked and the copy checked here.
func (s *surfaceScanner) pos(p token.Pos) string {
	position := s.fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Clean(position.Filename), position.Offset)
}

// declare collects the exported top-level names, the fields and methods
// of exported types, and the option fields of the package's non-test files.
func (s *surfaceScanner) declare(u surfaceUnit, pkg *types.Package) {
	isRoot := u.path == s.public
	for _, f := range u.files {
		if u.test[f] {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					if typ := surfaceRecvName(d.Recv.List[0].Type); ast.IsExported(typ) {
						s.owner[s.pos(d.Name.Pos())] = u.path + "." + typ
					}
					continue
				}
				if !isRoot && d.Name.IsExported() {
					s.declared[u.path+"."+d.Name.Name] = pkg.Scope().Lookup(d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if !isRoot && n.IsExported() {
								s.declared[u.path+"."+n.Name] = pkg.Scope().Lookup(n.Name)
							}
						}
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						key := u.path + "." + sp.Name.Name
						if !isRoot {
							s.declared[key] = pkg.Scope().Lookup(sp.Name.Name)
						}
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						option := isRoot && s.publicOptions[sp.Name.Name]
						if !isRoot {
							for _, suffix := range []string{"Options", "Config", "Spec"} {
								option = option || strings.HasSuffix(sp.Name.Name, suffix)
							}
						}
						for _, field := range st.Fields.List {
							for _, n := range surfaceFieldNames(field) {
								s.owner[s.pos(n.Pos())] = key
								if option && n.IsExported() {
									s.optFields[s.pos(n.Pos())] = key + "." + n.Name
								}
							}
						}
					}
				}
			}
		}
	}
}

func surfaceRecvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func surfaceFieldNames(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	e := f.Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch t := e.(type) {
	case *ast.Ident:
		return []*ast.Ident{t}
	case *ast.SelectorExpr:
		return []*ast.Ident{t.Sel}
	}
	return nil
}

// record notes every use of a package-level object, field or method, and
// every option field a file sets (composite-literal element, assignment,
// increment or address-of).
func (s *surfaceScanner) record(u surfaceUnit, info *types.Info) {
	for id, obj := range info.Uses {
		if obj.Pkg() == nil {
			continue
		}
		other := obj.Pkg().Path() != u.path
		nonTest := !u.test[s.fileOf(u, id.Pos())]
		if obj.Parent() == obj.Pkg().Scope() {
			key := obj.Pkg().Path() + "." + obj.Name()
			switch {
			case !other:
				s.usedInPkg[key] = s.usedInPkg[key] || nonTest
			case nonTest:
				s.usedNonTest[key] = true
				s.usedAnywhere[key] = true
			default:
				s.usedAnywhere[key] = true
			}
			continue
		}
		if other && nonTest {
			s.ownerUse[s.pos(obj.Pos())] = true
		}
	}
	for _, f := range u.files {
		test := u.test[f]
		var stack []ast.Node
		set := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				obj := info.Uses[sel.Sel]
				s.setField(u, obj, test, surfaceGuarded(stack, obj, info))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CompositeLit:
				st := surfaceStruct(info.Types[n].Type)
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							s.setField(u, info.Uses[key], test, false)
						}
					} else if st != nil && i < st.NumFields() {
						s.setField(u, st.Field(i), test, false)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					set(lhs)
				}
			case *ast.IncDecStmt:
				set(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(n.X)
				}
			}
			return true
		})
	}
}

// surfaceGuarded reports whether the innermost nodes on stack include an
// if statement whose condition reads field: "if o.F == 0 { o.F = d }"
// fills in a default, it does not set the option.
func surfaceGuarded(stack []ast.Node, field types.Object, info *types.Info) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		reads := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == field {
				reads = true
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}

// surfaceStruct is the struct type a composite literal of type t builds,
// or nil.
func surfaceStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// setField records that a file of u sets field obj. A non-test file of
// another package always counts; one of the declaring package counts
// unless it only fills in a default. Tests count only for the public
// package's options, whose real callers live outside this repository:
// there a test that pins the behaviour stands in for them.
func (s *surfaceScanner) setField(u surfaceUnit, obj types.Object, test, guarded bool) {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return
	}
	decl := v.Pkg().Path()
	switch {
	case test && decl != s.public:
		return
	case !test && decl == u.path && guarded:
		return
	}
	s.fieldSet[s.pos(v.Pos())] = true
}

func (s *surfaceScanner) fileOf(u surfaceUnit, p token.Pos) *ast.File {
	for _, f := range u.files {
		if f.FileStart <= p && p <= f.FileEnd {
			return f
		}
	}
	return nil
}

// report closes the used set over signatures and lists what is left.
// A type is used when another package's non-test code uses one of its
// fields or methods, or when it appears in the signature, type, field or
// method of something used, so types reached only by inference count.
func (s *surfaceScanner) report() surfaceReport {
	used := map[string]bool{}
	var work []string
	mark := func(key string) {
		if _, ok := s.declared[key]; ok && !used[key] {
			used[key] = true
			work = append(work, key)
		}
	}
	for key := range s.usedNonTest {
		mark(key)
	}
	for p, typ := range s.owner {
		if s.ownerUse[p] {
			mark(typ)
		}
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if obj := t.Obj(); obj.Pkg() != nil {
				mark(obj.Pkg().Path() + "." + obj.Name())
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		obj := s.declared[key]
		walk(obj.Type())
		if tn, ok := obj.(*types.TypeName); ok {
			walk(tn.Type().Underlying())
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						walk(m.Type())
					}
				}
			}
		}
	}
	var r surfaceReport
	for key := range s.declared {
		if !used[key] {
			r.idents = append(r.idents, key)
		}
	}
	for p, key := range s.optFields {
		if !s.fieldSet[p] {
			r.fields = append(r.fields, key)
		}
	}
	sort.Strings(r.idents)
	sort.Strings(r.fields)
	return r
}

// why says where a flagged identifier is used, for the failure message.
func (s *surfaceScanner) why(key string) string {
	switch {
	case s.usedInPkg[key]:
		return "used only in its own package: unexport it"
	case s.usedAnywhere[key]:
		return "used only by other packages' tests: delete it, or move it into the test that needs it"
	}
	return "used by no non-test code: delete it, or move it into the test that needs it"
}

func TestSurfaceRatchet(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the scan is one goroutine; -race only multiplies its time")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	s := newSurfaceScanner(fset, imp, "surfacefix/internal/", "", nil)

	// The fixture module declares exactly one exported function used only
	// in its own package and one option field no caller sets; a scan that
	// does not find exactly those two would pass vacuously on the tree.
	if err := s.scan(t, filepath.Join(root, "testdata", "surface")); err != nil {
		t.Fatal(err)
	}
	fix := s.report()
	if want := []string{"surfacefix/internal/a.Helper"}; fmt.Sprint(fix.idents) != fmt.Sprint(want) {
		t.Fatalf("fixture identifiers: got %v, want %v", fix.idents, want)
	}
	if want := []string{"surfacefix/internal/a.Options.Unset"}; fmt.Sprint(fix.fields) != fmt.Sprint(want) {
		t.Fatalf("fixture fields: got %v, want %v", fix.fields, want)
	}

	s = newSurfaceScanner(fset, imp, "hcompress/internal/", "hcompress", map[string]bool{"Config": true, "TierSpec": true})
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		if err := s.scan(t, dir); err != nil {
			t.Fatal(err)
		}
	}
	r := s.report()
	// check fails on every finding no allow-list entry covers, and on
	// every entry that covers nothing any more. A field entry may name a
	// whole struct ("pkg.Type") to cover all of its fields.
	check := func(kind string, found []string, allow map[string]string, structs bool, why func(string) string) {
		covered := map[string]bool{}
		for _, key := range found {
			entry := key
			if _, ok := allow[entry]; !ok && structs {
				entry = key[:strings.LastIndex(key, ".")]
			}
			if _, ok := allow[entry]; !ok {
				t.Errorf("%s %s: %s", kind, key, why(key))
				continue
			}
			covered[entry] = true
		}
		for key := range allow {
			if !covered[key] {
				t.Errorf("%s %s is allow-listed but no longer flagged: drop it from the allow-list", kind, key)
			}
		}
	}
	check("identifier", r.idents, surfaceIdentAllow, false, s.why)
	check("option field", r.fields, surfaceFieldAllow, true, func(string) string {
		return "no non-test code sets it (filling in its default does not count): make it a constant at its default, or unexport it if only its package's tests set it"
	})
}
