package acr

// A whole-program reachability gate over the module's non-test code. Every
// package-level function and every method must be reachable from a root: a
// main or init function, or a package-level var, const or type declaration.
// A function or method is reached when a reached body or a root names it,
// as go/types resolves the name (a generic instantiation counts as its
// origin). Interface calls are not traced to their targets; instead a
// method is reached when its name is in the method set of an interface the
// module's non-test code declares or names (anonymous ones, and those in
// the signature of a function it uses, included), or of a standard-library
// interface a package asserts an `any` argument against (error,
// fmt.Stringer, json.Marshaler, ...). What only tests reach does not ship.
//
// Matching interface methods by name keeps a method live although its type
// never reaches the interface: the gate can miss dead code, never report
// live code.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// deadcodeAllow names functions and methods that stay although no program
// reaches them, keyed "import/path.Func" or "import/path.Type.Method", each
// with the reason it stays.
var deadcodeAllow = map[string]string{
	"acr/internal/ckptstore.Disk.ModeledWriteTime": "NewDisk's cost parameter, which only a test sets, is in the calls bench/ makes; " +
		"dropping both goes with the next change to bench/",
	"acr/internal/consensus.Coordinator.Phase": "core's TestLaggardKilledAfterLeaderCaptured waits on it for a round to open while every task " +
		"is held short of the cut, and a method declared in consensus's _test.go files is invisible to core's tests",
}

// dynamicIfaces names, by the standard-library package that asserts an `any`
// argument against them, the interfaces whose methods that package calls
// although the module never names the interface. They count once the
// module imports the package, directly or through another.
var dynamicIfaces = map[string][][2]string{
	"fmt": {{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"}},
	"encoding/json": {{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
		{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"}},
}

// std type-checks standard-library packages from source, once per test
// binary: every deadFuncs call shares it and its file set.
var std = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// funcDecl is one declared function or method and the package info that
// resolves the names in it.
type funcDecl struct {
	key  string // import/path.Func or import/path.Type.Method
	pos  string // file:line
	body *ast.BlockStmt
	info *types.Info
}

// deadFuncs lists, as "file:line import/path.Name", every function and
// method under fsys that no root reaches and allow does not name. The
// module's import path is read from fsys's go.mod. It returns an error if a
// package does not type-check, or if allow names a function that does not
// exist or is reached anyway.
func deadFuncs(fsys fs.FS, allow map[string]string) ([]string, error) {
	mod, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	fset, stdImp := std()
	files := map[string][]*ast.File{} // import path -> its non-test files
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return fs.SkipDir
			}
			if p != "." {
				if _, err := fs.Stat(fsys, path.Join(p, "go.mod")); err == nil {
					return fs.SkipDir // a nested module is not part of this one
				}
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := mod
		if dir := path.Dir(p); dir != "." {
			imp += "/" + dir
		}
		files[imp] = append(files[imp], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Type-check each module package once, its module imports first.
	pkgs := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(string) (*types.Package, error)
	imp := importerFunc(func(p string) (*types.Package, error) {
		if _, ok := files[p]; ok {
			return check(p)
		}
		return stdImp.Import(p)
	})
	check = func(p string) (*types.Package, error) {
		if pkg, ok := pkgs[p]; ok {
			return pkg, nil
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p, fset, files[p], info)
		if err != nil {
			return nil, err
		}
		pkgs[p], infos[p] = pkg, info
		return pkg, nil
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	funcs := map[*types.Func]*funcDecl{}
	type root struct {
		node ast.Node
		info *types.Info
	}
	var roots []root
	ifaceMethods := map[string]bool{} // names in some interface's method set
	seen := map[types.Type]bool{}
	for _, p := range paths {
		if _, err := check(p); err != nil {
			return nil, err
		}
		info := infos[p]
		for _, f := range files[p] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						roots = append(roots, root{d, info})
						continue
					}
					fn, ok := info.Defs[d.Name].(*types.Func)
					if !ok || d.Name.Name == "_" {
						continue
					}
					key := p + "." + fn.Name()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						key = p + "." + recvName(recv.Type()) + "." + fn.Name()
					}
					pos := fset.Position(d.Pos())
					funcs[fn] = &funcDecl{key, fmt.Sprintf("%s:%d", pos.Filename, pos.Line), d.Body, info}
				case *ast.GenDecl:
					if d.Tok != token.IMPORT {
						roots = append(roots, root{d, info})
					}
				}
			}
		}
		for _, tv := range info.Types {
			addIfaces(tv.Type, ifaceMethods, seen)
		}
		for _, objs := range []map[*ast.Ident]types.Object{info.Defs, info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					addIfaces(obj.Type(), ifaceMethods, seen)
				}
			}
		}
	}
	addIfaces(types.Universe.Lookup("error").Type(), ifaceMethods, seen)
	imported := map[string]*types.Package{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		for _, imp := range pkg.Imports() {
			if imported[imp.Path()] == nil {
				imported[imp.Path()] = imp
				walk(imp)
			}
		}
	}
	for _, p := range paths {
		walk(pkgs[p])
	}
	for asserter, ifaces := range dynamicIfaces {
		if imported[asserter] == nil {
			continue
		}
		for _, di := range ifaces {
			addIfaces(imported[di[0]].Scope().Lookup(di[1]).Type(), ifaceMethods, seen)
		}
	}

	live := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if _, ok := funcs[fn]; ok && !live[fn] {
			live[fn] = true
			queue = append(queue, fn)
		}
	}
	scan := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					mark(fn.Origin())
				}
			}
			return true
		})
	}
	for fn := range funcs {
		if fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			mark(fn)
		}
	}
	for _, r := range roots {
		scan(r.node, r.info)
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d := funcs[fn]; d.body != nil {
			scan(d.body, d.info)
		}
	}

	byKey := map[string]*types.Func{}
	for fn, d := range funcs {
		byKey[d.key] = fn
	}
	for name, reason := range allow {
		fn, ok := byKey[name]
		switch {
		case strings.TrimSpace(reason) == "":
			return nil, fmt.Errorf("allowlist entry %s gives no reason", name)
		case !ok:
			return nil, fmt.Errorf("allowlist entry %s names no function or method", name)
		case live[fn]:
			return nil, fmt.Errorf("allowlist entry %s is reached and no longer needs an entry", name)
		}
	}
	var dead []string
	for fn, d := range funcs {
		if !live[fn] && allow[d.key] == "" {
			dead = append(dead, d.pos+" "+d.key)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// recvName is the name of a method's receiver type, without its pointer.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// addIfaces adds to names the method names of every interface t is or is
// built from: pointers, slices, arrays, maps, channels, unnamed structs,
// signatures, a named type's type arguments, and the signatures of an
// interface's own methods. It does not look through a named type to a
// struct: a field is named where it is used.
func addIfaces(t types.Type, names map[string]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		for i := range t.TypeArgs().Len() {
			addIfaces(t.TypeArgs().At(i), names, seen)
		}
		if _, ok := t.Underlying().(*types.Interface); ok {
			addIfaces(t.Underlying(), names, seen)
		}
	case *types.Alias:
		addIfaces(types.Unalias(t), names, seen)
	case *types.Interface:
		for i := range t.NumMethods() {
			names[t.Method(i).Name()] = true
			addIfaces(t.Method(i).Type(), names, seen)
		}
	case *types.Pointer:
		addIfaces(t.Elem(), names, seen)
	case *types.Slice:
		addIfaces(t.Elem(), names, seen)
	case *types.Array:
		addIfaces(t.Elem(), names, seen)
	case *types.Chan:
		addIfaces(t.Elem(), names, seen)
	case *types.Map:
		addIfaces(t.Key(), names, seen)
		addIfaces(t.Elem(), names, seen)
	case *types.Struct:
		for i := range t.NumFields() {
			addIfaces(t.Field(i).Type(), names, seen)
		}
	case *types.Signature:
		addIfaces(t.Params(), names, seen)
		addIfaces(t.Results(), names, seen)
	case *types.Tuple:
		for i := range t.Len() {
			addIfaces(t.At(i).Type(), names, seen)
		}
	}
}

// modulePath reads the module line of fsys's go.mod.
func modulePath(fsys fs.FS) (string, error) {
	f, err := fsys.Open("go.mod")
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("go.mod has no module line")
}

func TestNoUnreachableFuncs(t *testing.T) {
	dead, err := deadFuncs(os.DirFS("."), deadcodeAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("no program reaches %s: delete it, move it into a _test.go file, or allowlist it with a reason", d)
	}
}

// The fixture module plants one function or method per case. Exactly the
// ones only a test or a dead body reaches are dead, removing any one edge
// flips what it alone kept live, and a bad allowlist entry is an error.
func TestDeadcodeFixture(t *testing.T) {
	fixture := fstest.MapFS{}
	err := fs.WalkDir(os.DirFS("testdata/deadcode"), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		src, err := os.ReadFile(path.Join("testdata/deadcode", p))
		fixture[p] = &fstest.MapFile{Data: src}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{"fixture/lib.Allowed": "kept as public API for the fixture"}
	dead, err := deadFuncs(fixture, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:32 fixture/lib.OnlyTest",   // only a test calls it
		"lib/lib.go:37 fixture/lib.fromDead",   // only a dead function calls it
		"lib/lib.go:40 fixture/lib.T.TestOnly", // a method only a test calls
		"lib/lib.go:55 fixture/lib.T.Wide",     // a method nothing calls ...
		"lib/lib.go:58 fixture/lib.wrapFactor", // ... and the function only it calls
	}
	if strings.Join(dead, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dead = %q, want %q", dead, want)
	}

	for _, tc := range []struct {
		file, edge, cut string
		flips           []string // what the cut leaves dead besides want
	}{
		{"main.go", "lib.ViaMain()", "", []string{"lib/lib.go:5 fixture/lib.ViaMain", "lib/lib.go:8 fixture/lib.viaLive"}},
		{"lib/lib.go", "{ viaLive() }", "{}", []string{"lib/lib.go:8 fixture/lib.viaLive"}},
		{"main.go", "t.M()", "", []string{"lib/lib.go:14 fixture/lib.T.M", "lib/lib.go:17 fixture/lib.viaMethod"}},
		{"lib/lib.go", "{ viaMethod() }", "{}", []string{"lib/lib.go:17 fixture/lib.viaMethod"}},
		{"lib/lib.go", "= viaVar()", "= 42", []string{"lib/lib.go:23 fixture/lib.viaVar"}},
		{"lib/lib.go", "interface{ Asserted() }", "interface{}", []string{"lib/lib.go:43 fixture/lib.T.Asserted"}},
		{"lib/print.go", "import \"fmt\"\n\n// Print prints a T: the fixture's one call into fmt.\nfunc Print() { fmt.Print(T{}) }",
			"func Print() {}", []string{"lib/lib.go:52 fixture/lib.T.String"}},
		{"lib/lib.go", "Box[int]{7}.Get()", "Box[int]{7}.v", []string{"lib/lib.go:64 fixture/lib.Box.Get"}},
	} {
		src := string(fixture[tc.file].Data)
		if strings.Count(src, tc.edge) != 1 {
			t.Fatalf("%s: want exactly one %q", tc.file, tc.edge)
		}
		cut := fstest.MapFS{}
		for p, f := range fixture {
			cut[p] = f
		}
		cut[tc.file] = &fstest.MapFile{Data: []byte(strings.Replace(src, tc.edge, tc.cut, 1))}
		dead, err := deadFuncs(cut, allow)
		if err != nil {
			t.Fatal(err)
		}
		wantCut := append(append([]string(nil), want...), tc.flips...)
		sort.Strings(wantCut)
		if strings.Join(dead, "\n") != strings.Join(wantCut, "\n") {
			t.Errorf("without %q: dead = %q, want %q", tc.edge, dead, wantCut)
		}
	}

	for _, bad := range []map[string]string{
		{"fixture/lib.Allowed": " "},
		{"fixture/lib.Allowed": "r", "fixture/lib.Missing": "r"},
		{"fixture/lib.Allowed": "r", "fixture/lib.ViaMain": "r"},
		{"fixture/lib.Allowed": "r", "fixture/lib.T.M": "r"},
	} {
		if _, err := deadFuncs(fixture, bad); err == nil {
			t.Errorf("allowlist %v: want an error", bad)
		}
	}
}
