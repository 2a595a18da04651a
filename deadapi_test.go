package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// deadAPIKeep exempts exported names (and internal packages, written
// "internal/<pkg>") that TestDeadAPI would otherwise flag. Each entry
// needs a reason; an entry that names nothing, or that would pass
// without the list, fails the check, so the list cannot go stale.
var deadAPIKeep = []keepEntry{
	{"internal/jail", "only examples/operations imports it; ROADMAP 9(b) keeps it for item 3(b)'s fidelity row"},
	{"tape.Drive.FailNextOps", "the drive-error seam of tape, tsm and hsm failure tests; faults has no transient-error event"},
}

// maxDeadAPIKeep caps deadAPIKeep: an exemption is an exception.
const maxDeadAPIKeep = 10

const internalPrefix = "repro/internal/"

// TestDeadAPI checks that every exported package-level func, type, var
// and const under internal/, and every exported method on a named type
// there, is used by some non-test file of another package, in either
// module (the root and bench/). Selecting a field or method of a type
// counts as a use of that type. Methods named String or Error, or named
// by an interface declared in the repo, are reached through that
// interface and pass. Each internal package also needs a non-test
// importer outside examples/. A name a program does not call is
// deleted; one only its own package uses is unexported.
func TestDeadAPI(t *testing.T) {
	if len(deadAPIKeep) > maxDeadAPIKeep {
		t.Fatalf("deadAPIKeep has %d entries, want at most %d", len(deadAPIKeep), maxDeadAPIKeep)
	}
	start := time.Now()
	s := newAPIScan()
	for _, dir := range []string{".", "bench"} {
		if err := s.loadModule(dir); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.decls) == 0 || len(s.pkgs) == 0 {
		t.Fatalf("scan found %d names in %d packages under internal/", len(s.decls), len(s.pkgs))
	}
	t.Logf("%d names in %d packages checked in %v", len(s.decls), len(s.pkgs), time.Since(start).Round(time.Millisecond))
	if lines := s.report(deadAPIKeep); len(lines) > 0 {
		t.Errorf("exported API without a non-test caller (delete it, unexport it, or add a reasoned deadAPIKeep entry):\n%s",
			strings.Join(lines, "\n"))
	}
}

type keepEntry struct{ name, reason string }

// An apiScan gathers what the check needs from type-checked sources:
// the exported names declared under internal/, who uses each, the
// method names interfaces declare, and who imports each package.
type apiScan struct {
	fset  *token.FileSet
	decls map[string]token.Pos // exported name → declaration
	pkgs  map[string]string    // internal package path → its directory
	// progUse holds names some non-test file uses, crossUse those a
	// non-test file of another package uses; testUse, for each name,
	// the packages whose _test.go files use it.
	progUse  map[string]bool
	crossUse map[string]bool
	testUse  map[string]map[string]bool
	ifaceFns map[string]bool
	imported map[string]bool // internal packages a non-test, non-example file imports
	parsed   map[string]*ast.File
}

func newAPIScan() *apiScan {
	return &apiScan{
		fset:     token.NewFileSet(),
		decls:    map[string]token.Pos{},
		pkgs:     map[string]string{},
		progUse:  map[string]bool{},
		crossUse: map[string]bool{},
		testUse:  map[string]map[string]bool{},
		ifaceFns: map[string]bool{"String": true, "Error": true},
		imported: map[string]bool{},
		parsed:   map[string]*ast.File{},
	}
}

// apiKey names obj as "<import path>.<Name>" or, for a method,
// "<import path>.<Type>.<Name>"; it is "" for anything else.
func apiKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	pkg := obj.Pkg()
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return pkg.Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() != pkg.Scope() {
			return ""
		}
	default:
		return ""
	}
	return pkg.Path() + "." + obj.Name()
}

type span struct{ from, to token.Pos }

// add records one type-checked package. owner is "" for a package's
// non-test files; for a test build it is the package under test, and
// only the build's _test.go files are recorded.
func (s *apiScan) add(path, owner string, files []*ast.File, info *types.Info) {
	internal := strings.HasPrefix(path, internalPrefix)
	example := strings.HasPrefix(path, "repro/examples/")
	// own maps each declared object to its declaration, methods'
	// receivers included, so a self-reference is not a use.
	own := map[types.Object][]span{}
	for _, f := range files {
		if owner != "" || s.isTestPos(f.Pos()) {
			continue
		}
		if internal && s.pkgs[path] == "" {
			s.pkgs[path] = filepath.Dir(s.fset.Position(f.Pos()).Filename)
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); !example && p != path {
				s.imported[p] = true
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				own[obj] = append(own[obj], span{d.Pos(), d.End()})
				if d.Recv != nil {
					if recv := recvTypeName(d.Recv.List[0].Type, info); recv != nil {
						own[recv] = append(own[recv], span{d.Recv.Pos(), d.Recv.End()})
					}
				}
				s.declare(internal, obj)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[spec.Name]
						own[obj] = append(own[obj], span{spec.Pos(), spec.End()})
						s.declare(internal, obj)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							obj := info.Defs[n]
							own[obj] = append(own[obj], span{spec.Pos(), spec.End()})
							s.declare(internal, obj)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				if iface, ok := info.TypeOf(it).Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						s.ifaceFns[iface.Method(i).Name()] = true
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		key := apiKey(obj)
		if key == "" || !strings.HasPrefix(key, internalPrefix) {
			continue
		}
		if owner != "" {
			if !s.isTestPos(id.Pos()) {
				continue
			}
			if s.testUse[key] == nil {
				s.testUse[key] = map[string]bool{}
			}
			s.testUse[key][owner] = true
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		self := false
		for _, sp := range own[obj] {
			self = self || sp.from <= id.Pos() && id.Pos() < sp.to
		}
		if !self {
			s.progUse[key] = true
			s.crossUse[key] = s.crossUse[key] || obj.Pkg().Path() != path
		}
	}
	if owner != "" {
		return
	}
	// Selecting a field or method from another package uses its type.
	for _, sel := range info.Selections {
		t := sel.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != path {
			if key := apiKey(named.Obj()); key != "" {
				s.progUse[key] = true
				s.crossUse[key] = true
			}
		}
	}
}

func (s *apiScan) declare(internal bool, obj types.Object) {
	if key := apiKey(obj); internal && key != "" {
		s.decls[key] = obj.Pos()
	}
}

// recvTypeName resolves a method receiver's base type name.
func recvTypeName(e ast.Expr, info *types.Info) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}

func (s *apiScan) isTestPos(p token.Pos) bool {
	return strings.HasSuffix(s.fset.File(p).Name(), "_test.go")
}

// report lists each finding as "file:line: name: class", sorted, after
// applying keep; a keep entry without a reason, one that names nothing
// and one that would pass without the list are findings too.
func (s *apiScan) report(keep []keepEntry) []string {
	type finding struct {
		pos         string
		name, class string
	}
	found := map[string]finding{}
	known := map[string]bool{}
	for key, pos := range s.decls {
		name := strings.TrimPrefix(key, internalPrefix)
		known[name] = true
		method := strings.Count(name, ".") == 2 // pkg.Type.Method
		if s.crossUse[key] || method && s.ifaceFns[key[strings.LastIndexByte(key, '.')+1:]] {
			continue
		}
		pkg := key[:len(internalPrefix)+strings.IndexByte(name, '.')]
		class := "own package only"
		if !s.progUse[key] {
			class = "no use"
			for owner := range s.testUse[key] {
				if owner != pkg {
					class = "other packages' tests only"
					break
				}
				class = "own tests only"
			}
		}
		p := s.fset.Position(pos)
		found[name] = finding{fmt.Sprintf("%s:%d", relPath(p.Filename), p.Line), name, class}
	}
	for path, dir := range s.pkgs {
		name := strings.TrimPrefix(path, "repro/")
		known[name] = true
		if !s.imported[path] {
			found[name] = finding{relPath(dir), name, "no non-test importer outside examples/"}
		}
	}
	var lines []string
	for _, k := range keep {
		switch {
		case k.reason == "":
			lines = append(lines, fmt.Sprintf("deadAPIKeep: %s: no reason given", k.name))
		case !known[k.name]:
			lines = append(lines, fmt.Sprintf("deadAPIKeep: %s: names nothing under internal/", k.name))
		case found[k.name] == (finding{}):
			lines = append(lines, fmt.Sprintf("deadAPIKeep: %s: passes without the keep list", k.name))
		default:
			delete(found, k.name)
		}
	}
	for _, f := range found {
		lines = append(lines, fmt.Sprintf("%s: %s: %s", f.pos, f.name, f.class))
	}
	sort.Strings(lines)
	return lines
}

func relPath(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return name
}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath string
	ForTest    string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// loadModule type-checks every package of the module in dir, with its
// tests, against the compiler's export data for what it imports.
func (s *apiScan) loadModule(dir string) error {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-test", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		if p.Error != nil {
			return fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		pkgs = append(pkgs, p)
	}
	// One importer per import mapping: an external test sees the
	// test build of the package it tests, everything else the plain one.
	importers := map[string]types.Importer{}
	for _, p := range pkgs {
		if p.Module == nil || !p.Module.Main || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		path, _, variant := strings.Cut(p.ImportPath, " ")
		owner := ""
		if variant {
			if path != p.ForTest && path != p.ForTest+"_test" {
				continue // a dependency rebuilt for a test: its files are checked plainly
			}
			owner = p.ForTest
		}
		files := make([]*ast.File, len(p.GoFiles))
		for i, name := range p.GoFiles {
			if files[i], err = s.parse(filepath.Join(p.Dir, name)); err != nil {
				return err
			}
		}
		mapKey := fmt.Sprint(p.ImportMap)
		imp := importers[mapKey]
		if imp == nil {
			importMap := p.ImportMap
			imp = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
				if id, ok := importMap[path]; ok {
					path = id
				}
				if exports[path] == "" {
					return nil, fmt.Errorf("no export data for %s", path)
				}
				return os.Open(exports[path])
			})
			importers[mapKey] = imp
		}
		info := newTypesInfo()
		if _, err := (&types.Config{Importer: imp}).Check(path, s.fset, files, info); err != nil {
			return fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		s.add(path, owner, files, info)
	}
	return nil
}

// newTypesInfo asks the type checker for what add reads.
func newTypesInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// parse reads a file once, whichever builds of its package include it.
func (s *apiScan) parse(name string) (*ast.File, error) {
	if f := s.parsed[name]; f != nil {
		return f, nil
	}
	f, err := parser.ParseFile(s.fset, name, nil, parser.SkipObjectResolution)
	s.parsed[name] = f
	return f, err
}

// fixturePkg is one in-memory package for TestDeadAPIClassifier: its
// import path and its sources by file name.
type fixturePkg struct {
	path  string
	files map[string]string
}

// scanFixture type-checks pkgs in order, each with its tests, the way
// loadModule checks a module, and returns the scan.
func scanFixture(t *testing.T, pkgs ...fixturePkg) *apiScan {
	t.Helper()
	s := newAPIScan()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("no fixture package %s", path)
	})
	check := func(path, owner string, files []*ast.File) *types.Package {
		info := newTypesInfo()
		pkg, err := (&types.Config{Importer: imp}).Check(path, s.fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		s.add(path, owner, files, info)
		return pkg
	}
	for _, p := range pkgs {
		names := make([]string, 0, len(p.files))
		for name := range p.files {
			names = append(names, name)
		}
		sort.Strings(names)
		var prog, internal, external []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(s.fset, name, p.files[name], parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				prog = append(prog, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				external = append(external, f)
			default:
				internal = append(internal, f)
			}
		}
		checked[p.path] = check(p.path, "", prog)
		if len(internal) > 0 {
			check(p.path, p.path, slices.Concat(prog, internal))
		}
		if len(external) > 0 {
			check(p.path+"_test", p.path, external)
		}
	}
	return s
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestDeadAPIClassifier runs the check on a planted tree: it must flag
// an exported func nothing calls (calling itself does not count), one
// only its own tests call, one only another package's test calls, one
// only its own package calls and a package only an example imports;
// pass a String method, a method only an interface names, a type only
// reached by selecting its field, and a name only a second module
// uses; and reject stale, reasonless and unknown keep-list entries.
func TestDeadAPIClassifier(t *testing.T) {
	s := scanFixture(t,
		fixturePkg{"repro/internal/a", map[string]string{
			"internal/a/a.go": `package a

type T struct{}

func New() T { Own(); return T{} }

func (T) String() string { return "t" }

func Dead() {}

func OwnTest() {}

func OtherTest() {}

func Bench() {}

func Recur(n int) int { if n > 0 { return Recur(n - 1) }; return 0 }

func Own() {}

type R struct{ N int }

func MakeR() R { return R{} }

func (T) Len() int { return 0 }
`,
			"internal/a/a_test.go": "package a\n\nfunc helper() { OwnTest() }\n",
		}},
		fixturePkg{"repro/internal/c", map[string]string{
			"internal/c/c.go": "package c\n\nfunc C() {}\n",
		}},
		fixturePkg{"repro/cmd/b", map[string]string{
			"cmd/b/main.go": `package main

import "repro/internal/a"

type lener interface{ Len() int }

func main() {
	var l lener = a.New()
	_ = l.Len() + a.MakeR().N
	_ = a.New().String()
}
`,
			"cmd/b/main_test.go": "package main_test\n\nimport \"repro/internal/a\"\n\nfunc helper() { a.OtherTest() }\n",
		}},
		fixturePkg{"repro/examples/e", map[string]string{
			"examples/e/main.go": "package main\n\nimport \"repro/internal/c\"\n\nfunc main() { c.C() }\n",
		}},
		// A second module, as bench/ is.
		fixturePkg{"repro/bench", map[string]string{
			"bench/main.go": "package main\n\nimport \"repro/internal/a\"\n\nfunc main() { a.Bench() }\n",
		}},
	)
	dead := "internal/a/a.go:9: a.Dead: no use"
	own := "internal/a/a.go:11: a.OwnTest: own tests only"
	other := "internal/a/a.go:13: a.OtherTest: other packages' tests only"
	recur := "internal/a/a.go:17: a.Recur: no use"
	ownPkg := "internal/a/a.go:19: a.Own: own package only"
	pkgC := "internal/c: internal/c: no non-test importer outside examples/"
	for _, tc := range []struct {
		name string
		keep []keepEntry
		want []string
	}{
		{"no keep list", nil, []string{own, other, recur, ownPkg, dead, pkgC}},
		{"kept", []keepEntry{{"a.Dead", "planted"}, {"a.Recur", "planted"}, {"internal/c", "planted"}}, []string{own, other, ownPkg}},
		{"stale", []keepEntry{{"a.New", "cmd/b calls it"}}, []string{"deadAPIKeep: a.New: passes without the keep list", own, other, recur, ownPkg, dead, pkgC}},
		{"unknown", []keepEntry{{"a.Gone", "deleted"}}, []string{"deadAPIKeep: a.Gone: names nothing under internal/", own, other, recur, ownPkg, dead, pkgC}},
		{"no reason", []keepEntry{{"a.Dead", ""}}, []string{"deadAPIKeep: a.Dead: no reason given", own, other, recur, ownPkg, dead, pkgC}},
	} {
		if got := s.report(tc.keep); !slices.Equal(got, tc.want) {
			t.Errorf("%s: report =\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
