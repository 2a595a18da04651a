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
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// deadAPIKeep exempts exported names, internal packages (written
// "internal/<pkg>") and struct fields ("<pkg>.<Type>.<Field>") that
// TestDeadAPI would otherwise flag. Each entry needs a reason; an entry
// that names nothing, or that would pass without the list, fails the
// check, so the list cannot go stale.
var deadAPIKeep = []keepEntry{
	{"internal/jail", "only examples/operations imports it; ROADMAP 9(b) keeps it for item 3(b)'s fidelity row"},
	{"tape.Drive.FailNextOps", "the drive-error seam of tape, tsm and hsm failure tests; faults has no transient-error event"},
	{"fabric.Fabric.hubFast", "the equivalence tests' proof that solveHub's fast path ran"},
	{"fabric.Fabric.hubFallback", "the equivalence tests' proof that solveHub fell back to the canonical solver"},
	{"jail.Policy.AllowGrep", "ROADMAP 3(b) decides whether a program turns the hazard on"},
	{"sched.Item.Kind", "bench/probes.go sets it and bench/ may not change; ROADMAP 1(e) drops it"},
	{"tsm.StoreRequest.Class", "bench/probes.go sets it and bench/ may not change; ROADMAP 1(e) drops it"},
}

// maxDeadAPIKeep caps deadAPIKeep, and maxFieldKeep its struct-field
// rows: an exemption is an exception.
const (
	maxDeadAPIKeep = 10
	maxFieldKeep   = 6
)

const internalPrefix = "repro/internal/"

// TestDeadAPI checks that every exported package-level func, type, var
// and const under internal/, and every exported method on a named type
// there, is used by some non-test file of another package, in either
// module (the root and bench/). Selecting a field or method of a type,
// or naming the type in the signature of a name used across packages,
// counts as a use of that type; an unexported type so named is a
// finding, as its users cannot name it. Methods named String or Error,
// or named by an interface declared in the repo, are reached through
// that interface and pass. Each internal package also needs a non-test
// importer outside examples/. A name a program does not call is
// deleted; one only its own package uses is unexported.
//
// It checks struct fields too: every field the root module's non-test
// files declare must be read by some non-test file ("no program reads
// it"), and an exported field of an exported struct under internal/
// that tests set must be set by a program as well ("no program sets
// it"). A field no program needs is deleted with the code that fills
// it.
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
	if n := s.fieldRows(deadAPIKeep); n > maxFieldKeep {
		t.Errorf("deadAPIKeep has %d struct-field rows, want at most %d", n, maxFieldKeep)
	}
	t.Logf("%d names and %d fields in %d packages checked in %v",
		len(s.decls), len(s.fields), len(s.pkgs), time.Since(start).Round(time.Millisecond))
	if lines := s.report(deadAPIKeep); len(lines) > 0 {
		t.Errorf("exported API without a non-test caller (delete it, unexport it, or add a reasoned deadAPIKeep entry):\n%s",
			strings.Join(lines, "\n"))
	}
}

type keepEntry struct{ name, reason string }

// fieldRows counts the keep entries that name a struct field.
func (s *apiScan) fieldRows(keep []keepEntry) int {
	names := map[string]bool{}
	for _, f := range s.fields {
		names[f.name] = true
	}
	n := 0
	for _, k := range keep {
		if names[k.name] {
			n++
		}
	}
	return n
}

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
	// sigTypes holds, for each exported name, the named types under
	// internal/ its signature names; unexported holds the declarations
	// of the unexported package-level types there. Both are by typeKey.
	sigTypes   map[string][]string
	unexported map[string]token.Pos
	// fields holds the struct fields the root module's non-test files
	// declare, by fieldKey; read those a non-test file reads, progSet and
	// testSet where a non-test and a _test.go file first writes each.
	fields  map[string]fieldDecl
	read    map[string]bool
	progSet map[string]token.Pos
	testSet map[string]token.Pos
}

// A fieldDecl is one declared struct field: its name as
// "<pkg>.<Type>.<Field>", and whether it is an exported field of an
// exported package-level struct under internal/, which a program must
// set as well as read.
type fieldDecl struct {
	name    string
	pos     token.Pos
	request bool
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

		sigTypes:   map[string][]string{},
		unexported: map[string]token.Pos{},
		fields:     map[string]fieldDecl{},
		read:       map[string]bool{},
		progSet:    map[string]token.Pos{},
		testSet:    map[string]token.Pos{},
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
	root := path == "repro" || strings.HasPrefix(path, "repro/") && !strings.HasPrefix(path, "repro/bench")
	for _, f := range files {
		if test := s.isTestPos(f.Pos()); owner != "" || test {
			if owner != "" && test {
				s.fieldUses(f, info, true)
			}
			continue
		}
		if root {
			s.declareFields(path, f, info)
		}
		s.fieldUses(f, info, false)
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
	s.comparedInstances(info)
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
	if !internal || obj == nil {
		return
	}
	key := apiKey(obj)
	if key == "" {
		if tn, ok := obj.(*types.TypeName); ok && obj.Parent() == obj.Pkg().Scope() {
			s.unexported[typeKey(tn)] = obj.Pos()
		}
		return
	}
	s.decls[key] = obj.Pos()
	var named []string
	note := func(t types.Type) { named = appendNamed(named, t) }
	switch obj := obj.(type) {
	case *types.Func:
		note(obj.Type())
	case *types.TypeName:
		switch u := obj.Type().Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() {
					note(u.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				note(u.ExplicitMethod(i).Type())
			}
		default:
			note(u)
		}
	default:
		note(obj.Type())
	}
	s.sigTypes[key] = named
}

// typeKey names a package-level type as "<import path>.<Name>".
func typeKey(tn *types.TypeName) string { return tn.Pkg().Path() + "." + tn.Name() }

// appendNamed appends the typeKey of each named type under internal/
// that t spells out, without looking inside named types.
func appendNamed(keys []string, t types.Type) []string {
	switch t := t.(type) {
	case *types.Named:
		if tn := t.Obj(); tn.Pkg() != nil && strings.HasPrefix(tn.Pkg().Path(), internalPrefix) && tn.Parent() == tn.Pkg().Scope() {
			keys = append(keys, typeKey(tn))
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			keys = appendNamed(keys, t.TypeArgs().At(i))
		}
	case *types.Pointer:
		keys = appendNamed(keys, t.Elem())
	case *types.Slice:
		keys = appendNamed(keys, t.Elem())
	case *types.Array:
		keys = appendNamed(keys, t.Elem())
	case *types.Chan:
		keys = appendNamed(keys, t.Elem())
	case *types.Map:
		keys = appendNamed(appendNamed(keys, t.Key()), t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				keys = appendNamed(keys, tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			keys = appendNamed(keys, t.Field(i).Type())
		}
	case *types.Interface:
		for i := 0; i < t.NumExplicitMethods(); i++ {
			keys = appendNamed(keys, t.ExplicitMethod(i).Type())
		}
	}
	return keys
}

// fieldKey names a struct field by where it is declared, which both a
// source-checked package and export data report ("<file>:<line>:<name>";
// export data keeps no columns).
func (s *apiScan) fieldKey(v *types.Var) string {
	p := s.fset.Position(v.Origin().Pos())
	return p.Filename + ":" + strconv.Itoa(p.Line) + ":" + v.Name()
}

// declareFields records the struct fields f declares, named after the
// type, variable or func that encloses them. Embedded and blank fields
// are exempt; a tagged field counts as read, as encoding/json reads it.
func (s *apiScan) declareFields(path string, f *ast.File, info *types.Info) {
	pkg := strings.TrimPrefix(strings.TrimPrefix(path, internalPrefix), "repro/")
	var walk func(n ast.Node, prefix string, request bool)
	walk = func(n ast.Node, prefix string, request bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, pkg+"."+n.Name.Name, false)
				}
				return false
			case *ast.TypeSpec:
				top := info.Defs[n.Name].Parent() == info.Defs[n.Name].Pkg().Scope()
				walk(n.Type, pkg+"."+n.Name.Name, top && n.Name.IsExported() && strings.HasPrefix(path, internalPrefix))
				return false
			case *ast.ValueSpec:
				if n.Type != nil {
					walk(n.Type, pkg+"."+n.Names[0].Name, false)
				}
				for _, v := range n.Values {
					walk(v, pkg+"."+n.Names[0].Name, false)
				}
				return false
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, id := range fld.Names {
						v, ok := info.Defs[id].(*types.Var)
						if !ok || id.Name == "_" {
							continue
						}
						key := s.fieldKey(v)
						s.fields[key] = fieldDecl{prefix + "." + id.Name, id.Pos(), request && id.IsExported()}
						if fld.Tag != nil {
							s.read[key] = true
						}
					}
					walk(fld.Type, prefix+"."+fieldName(fld), false)
				}
				return false
			}
			return true
		})
	}
	walk(f, pkg, false)
}

func fieldName(f *ast.Field) string {
	if len(f.Names) == 0 {
		return "_"
	}
	return f.Names[0].Name
}

// fieldUses records the field reads and writes in f (a test file's
// writes only). A read is any use but as the target of =, op=, ++ or
// -- (x.F in x.F = append(x.F, v) is such a target too); a struct
// compared with == or used as a map key has all its fields read. A
// write is a struct literal, such a target, &x.F, or a write through
// the field (x.F[i] = v, x.F.G = v, a pointer-method call on x.F).
func (s *apiScan) fieldUses(f *ast.File, info *types.Info, test bool) {
	targets := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for i, e := range n.Lhs {
				targets[ast.Unparen(e)] = true
				// x.F = append(x.F, v) only grows x.F, as x.F += v would.
				if len(n.Lhs) != len(n.Rhs) {
					continue
				}
				if c, ok := n.Rhs[i].(*ast.CallExpr); ok && len(c.Args) > 0 && isBuiltin(info, c.Fun, "append") &&
					types.ExprString(c.Args[0]) == types.ExprString(e) {
					targets[ast.Unparen(c.Args[0])] = true
				}
			}
		case *ast.IncDecStmt:
			targets[ast.Unparen(n.X)] = true
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						targets[ast.Unparen(e)] = true
					}
				}
			}
		}
		return true
	})
	set := s.progSet
	if test {
		set = s.testSet
	}
	write := func(v *types.Var, at token.Pos) {
		if key := s.fieldKey(v); set[key] == token.NoPos {
			set[key] = at
		}
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
				v := sel.Obj().(*types.Var)
				if !test && !targets[n] {
					s.read[s.fieldKey(v)] = true
				}
				if targets[n] || writesThrough(n, stack, info, targets) {
					write(v, n.Sel.Pos())
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n).Underlying()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem().Underlying()
			}
			if st, ok := t.(*types.Struct); ok {
				for i, e := range n.Elts {
					v := st.Field(i)
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						v = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					}
					write(v, e.Pos())
				}
			}
		case *ast.BinaryExpr:
			if !test && (n.Op == token.EQL || n.Op == token.NEQ) {
				s.compared(info.TypeOf(n.X))
			}
		case *ast.MapType:
			if !test {
				s.compared(info.TypeOf(n.Key))
			}
		}
		stack = append(stack, n)
		return true
	})
}

// isBuiltin reports whether fun names the predeclared function name.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// writesThrough reports whether the field selection e, whose enclosing
// nodes are stack, is written through: indexed, selected, dereferenced
// or parenthesised up to an assignment target, address-taken, or the
// receiver of a pointer-method call.
func writesThrough(e ast.Expr, stack []ast.Node, info *types.Info, targets map[ast.Expr]bool) bool {
	for i := len(stack) - 1; i >= 0 && !targets[e]; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			e = p
		case *ast.StarExpr:
			e = p
		case *ast.IndexExpr:
			if p.X != e {
				return false
			}
			e = p
		case *ast.UnaryExpr:
			return p.Op == token.AND
		case *ast.SelectorExpr:
			sel := info.Selections[p]
			if sel == nil {
				return false
			}
			if sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptr := info.TypeOf(e).Underlying().(*types.Pointer)
				return ptrRecv && !ptr
			}
			e = p
		default:
			return false
		}
	}
	return targets[e]
}

// compared marks every field of t read, as comparing a struct value or
// hashing it as a map key reads them all.
func (s *apiScan) compared(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			s.read[s.fieldKey(u.Field(i))] = true
			s.compared(u.Field(i).Type())
		}
	case *types.Array:
		s.compared(u.Elem())
	}
}

// comparedInstances marks a struct read where it instantiates a
// comparable type parameter (slices.Index, a generic map key).
func (s *apiScan) comparedInstances(info *types.Info) {
	for id, inst := range info.Instances {
		var params *types.TypeParamList
		switch t := inst.Type.(type) {
		case *types.Named:
			params = t.Origin().TypeParams()
		case *types.Signature:
			if fn, ok := info.Uses[id].(*types.Func); ok {
				params = fn.Origin().Type().(*types.Signature).TypeParams()
			}
		}
		for i := 0; params != nil && i < params.Len() && i < inst.TypeArgs.Len(); i++ {
			if iface, ok := params.At(i).Constraint().Underlying().(*types.Interface); ok && iface.IsComparable() {
				s.compared(inst.TypeArgs.At(i))
			}
		}
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
	at := func(pos token.Pos) string {
		p := s.fset.Position(pos)
		return fmt.Sprintf("%s:%d", relPath(p.Filename), p.Line)
	}
	// A type a crossing name's signature names crosses too; an
	// unexported one is a finding, as its users cannot name it.
	cross := maps.Clone(s.crossUse)
	var queue []string
	for key := range cross {
		queue = append(queue, key)
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, t := range s.sigTypes[key] {
			if pos, ok := s.unexported[t]; ok {
				name := strings.TrimPrefix(t, internalPrefix)
				found[name] = finding{at(pos), name, "unexported, but named by " + strings.TrimPrefix(key, internalPrefix) + " across packages"}
			} else if _, ok := s.decls[t]; ok && !cross[t] {
				cross[t] = true
				queue = append(queue, t)
			}
		}
	}
	for key := range s.unexported {
		known[strings.TrimPrefix(key, internalPrefix)] = true
	}
	for key, pos := range s.decls {
		name := strings.TrimPrefix(key, internalPrefix)
		known[name] = true
		method := strings.Count(name, ".") == 2 // pkg.Type.Method
		if cross[key] || method && s.ifaceFns[key[strings.LastIndexByte(key, '.')+1:]] {
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
		found[name] = finding{at(pos), name, class}
	}
	base := func(pos token.Pos) string {
		p := s.fset.Position(pos)
		return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	}
	for key, f := range s.fields {
		known[f.name] = true
		switch set := s.progSet[key]; {
		case !s.read[key] && set != token.NoPos:
			found[f.name] = finding{at(f.pos), f.name, "no program reads it (written at " + base(set) + ")"}
		case !s.read[key] && s.testSet[key] != token.NoPos:
			found[f.name] = finding{at(f.pos), f.name, "no program reads it (written at " + base(s.testSet[key]) + ")"}
		case !s.read[key]:
			found[f.name] = finding{at(f.pos), f.name, "no program reads it (never written)"}
		case f.request && set == token.NoPos && s.testSet[key] != token.NoPos:
			found[f.name] = finding{at(f.pos), f.name, "no program sets it (set at " + base(s.testSet[key]) + ")"}
		}
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
// only its own package calls, a package only an example imports, an
// unexported type a cross-package signature names, a field that is
// only written (assigned, bumped with ++, grown by append, or read by a
// test) and an exported request field only a test sets; pass a String
// method, a method only an interface names, a type only reached by
// selecting its field or through a signature, a name only a second
// module uses, the fields of a map key, a tagged field and a field
// written through x.F[i]; and reject stale, reasonless and unknown
// keep-list entries.
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

type F struct {
	written  int
	testRead int
	bumped   int
	grown    []int
	key      k
	slots    []int
	Tagged   int "json:\"tagged\""
}

type k struct{ x, y int }

type Req struct{ Set, Both int }

func UseF(f *F, r Req) int {
	f.written = 1
	f.testRead = 2
	f.bumped++
	f.grown = append(f.grown, 1)
	f.slots[0] = 1
	_ = map[k]bool{f.key: true}
	_ = Req{Both: 1}
	return r.Set + r.Both
}

type hidden int

func Seam(hidden) {}

type Shown int

func Named(Shown) {}
`,
			"internal/a/a_test.go": "package a\n\nfunc helper() { OwnTest(); _ = F{}.testRead; _ = Req{Set: 1, Both: 2} }\n",
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
	_ = a.UseF(nil, a.Req{})
	a.Seam(0)
	a.Named(1)
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
	fields := []string{
		"internal/a/a.go:28: a.F.written: no program reads it (written at a.go:42)",
		"internal/a/a.go:29: a.F.testRead: no program reads it (written at a.go:43)",
		"internal/a/a.go:30: a.F.bumped: no program reads it (written at a.go:44)",
		"internal/a/a.go:31: a.F.grown: no program reads it (written at a.go:45)",
		"internal/a/a.go:39: a.Req.Set: no program sets it (set at a_test.go:3)",
	}
	hidden := "internal/a/a.go:52: a.hidden: unexported, but named by a.Seam across packages"
	all := func(extra ...string) []string {
		lines := slices.Concat(extra, []string{own, other, recur, ownPkg, hidden, dead, pkgC}, fields)
		sort.Strings(lines)
		return lines
	}
	for _, tc := range []struct {
		name string
		keep []keepEntry
		want []string
	}{
		{"no keep list", nil, all()},
		{"kept", []keepEntry{{"a.Dead", "planted"}, {"a.Recur", "planted"}, {"internal/c", "planted"}, {"a.F.written", "planted"}},
			slices.DeleteFunc(all(), func(l string) bool {
				return l == dead || l == recur || l == pkgC || strings.Contains(l, "a.F.written")
			})},
		{"stale", []keepEntry{{"a.New", "cmd/b calls it"}, {"a.F.slots", "written through x.F[i]"}}, all(
			"deadAPIKeep: a.New: passes without the keep list",
			"deadAPIKeep: a.F.slots: passes without the keep list")},
		{"unknown", []keepEntry{{"a.Gone", "deleted"}}, all("deadAPIKeep: a.Gone: names nothing under internal/")},
		{"no reason", []keepEntry{{"a.Dead", ""}}, all("deadAPIKeep: a.Dead: no reason given")},
	} {
		if got := s.report(tc.keep); !slices.Equal(got, tc.want) {
			t.Errorf("%s: report =\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
