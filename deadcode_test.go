package acr

// A whole-program reachability gate over the module's non-test code. Every
// package-level function must be reachable from a root: a main or init
// function, a method body (interface satisfaction cannot be decided without
// type information, so every method counts as live), or a package-level
// var, const or type declaration. A function only tests call does not ship.
//
// The scan is syntactic (go/parser and go/ast, nothing else): a `pkg.F`
// selector resolves through the file's imports, a bare identifier within
// its own package. Shadowing is ignored, so a local name that happens to
// match a function keeps that function live; the gate can miss dead code,
// never report live code.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// deadcodeAllow names package-level functions that stay although no program
// reaches them, keyed "import/path.Func", each with the reason it stays.
var deadcodeAllow = map[string]string{}

// funcKey names one package-level function: the import path of its
// package and its name.
type funcKey struct{ pkg, name string }

func (k funcKey) String() string { return k.pkg + "." + k.name }

// funcDecl is one declaration of a package-level function.
type funcDecl struct {
	pos  string // file:line
	body *ast.BlockStmt
	imps map[string]string // the declaring file's imports: local name -> path
}

// deadFuncs lists, as "file:line import/path.Func", every package-level
// function under fsys that no root reaches and allow does not name. The
// module's import path is read from fsys's go.mod. It returns an error if
// allow names a function that does not exist or is reached anyway.
func deadFuncs(fsys fs.FS, allow map[string]string) ([]string, error) {
	mod, err := modulePath(fsys)
	if err != nil {
		return nil, err
	}
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // dir -> package name
	fset := token.NewFileSet()
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
		dir := path.Dir(p)
		pkgName[dir] = f.Name.Name
		files = append(files, file{dir, f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	importPath := func(dir string) string {
		if dir == "." {
			return mod
		}
		return mod + "/" + dir
	}
	// The package name each of the module's own import paths declares.
	nameOf := map[string]string{}
	for dir, name := range pkgName {
		nameOf[importPath(dir)] = name
	}

	funcs := map[funcKey][]funcDecl{}
	type body struct {
		pkg  string
		node ast.Node
		imps map[string]string
	}
	var roots []body
	for _, fl := range files {
		pkg := importPath(fl.dir)
		imps := map[string]string{}
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local, ok := nameOf[p]
			if !ok {
				continue // outside the module
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			if local != "_" {
				imps[local] = p
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || d.Name.Name == "init" ||
					(d.Name.Name == "main" && fl.f.Name.Name == "main") {
					if d.Body != nil {
						roots = append(roots, body{pkg, d.Body, imps})
					}
					continue
				}
				k := funcKey{pkg, d.Name.Name}
				pos := fset.Position(d.Pos())
				funcs[k] = append(funcs[k], funcDecl{
					pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line), body: d.Body, imps: imps})
			case *ast.GenDecl:
				if d.Tok != token.IMPORT {
					roots = append(roots, body{pkg, d, imps})
				}
			}
		}
	}

	live := map[funcKey]bool{}
	var queue []funcKey
	mark := func(k funcKey) {
		if _, ok := funcs[k]; ok && !live[k] {
			live[k] = true
			queue = append(queue, k)
		}
	}
	for _, r := range roots {
		scanNode(r.pkg, r.node, r.imps, mark)
	}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, d := range funcs[k] {
			if d.body != nil {
				scanNode(k.pkg, d.body, d.imps, mark)
			}
		}
	}

	for name, reason := range allow {
		var k funcKey
		if i := strings.LastIndex(name, "."); i > 0 {
			k = funcKey{name[:i], name[i+1:]}
		}
		switch {
		case strings.TrimSpace(reason) == "":
			return nil, fmt.Errorf("allowlist entry %s gives no reason", name)
		case funcs[k] == nil:
			return nil, fmt.Errorf("allowlist entry %s names no package-level function", name)
		case live[k]:
			return nil, fmt.Errorf("allowlist entry %s is reached and no longer needs an entry", name)
		}
	}
	var dead []string
	for k, ds := range funcs {
		if live[k] || allow[k.String()] != "" {
			continue
		}
		for _, d := range ds {
			dead = append(dead, d.pos+" "+k.String())
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// scanNode marks every package-level function n names: `pkg.F` through the
// file's imports imps, a bare identifier within pkg (and within any
// dot-imported package).
func scanNode(pkg string, n ast.Node, imps map[string]string, mark func(funcKey)) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imps[x.Name]; ok {
					mark(funcKey{p, n.Sel.Name})
					return false
				}
			}
			// A field or method selection: only the operand can name
			// something package-level.
			ast.Inspect(n.X, visit)
			return false
		case *ast.Field:
			// Field and parameter names declare; only the type refers.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.KeyValueExpr:
			// A bare key is a struct field or a constant, never a
			// function: functions cannot be map keys.
			if _, ok := n.Key.(*ast.Ident); !ok {
				ast.Inspect(n.Key, visit)
			}
			ast.Inspect(n.Value, visit)
			return false
		case *ast.Ident:
			mark(funcKey{pkg, n.Name})
			if p, ok := imps["."]; ok {
				mark(funcKey{p, n.Name})
			}
		}
		return true
	}
	ast.Inspect(n, visit)
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

// The fixture module plants one function per case: exactly the test-only
// one and the one only it calls are dead, removing any one call edge flips
// its callee to dead, and a bad allowlist entry is an error.
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
	want := []string{"lib/lib.go:32 fixture/lib.OnlyTest", "lib/lib.go:37 fixture/lib.fromDead"}
	if strings.Join(dead, "\n") != strings.Join(want, "\n") {
		t.Fatalf("dead = %q, want %q", dead, want)
	}

	for _, tc := range []struct {
		file, edge, cut string
		flips           []string // what the cut leaves dead besides want
	}{
		{"main.go", "lib.ViaMain()", "", []string{"lib/lib.go:5 fixture/lib.ViaMain", "lib/lib.go:8 fixture/lib.viaLive"}},
		{"lib/lib.go", "{ viaLive() }", "{}", []string{"lib/lib.go:8 fixture/lib.viaLive"}},
		{"lib/lib.go", "{ viaMethod() }", "{}", []string{"lib/lib.go:17 fixture/lib.viaMethod"}},
		{"lib/lib.go", "= viaVar()", "= 42", []string{"lib/lib.go:23 fixture/lib.viaVar"}},
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
	} {
		if _, err := deadFuncs(fixture, bad); err == nil {
			t.Errorf("allowlist %v: want an error", bad)
		}
	}
}
