package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ncfn/internal/analysis"
	"ncfn/internal/analysis/ncanalysis"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the selfcheck finds the whole module no matter which package
// the test binary runs from.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the regression gate for the whole suite: nclint's
// analyzers must report zero findings on the repository itself. Any new
// violation either gets fixed or gets an explicit //nolint:nc with a
// reason — it cannot land silently.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks every package in the module")
	}
	pkgs, err := ncanalysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	res, err := ncanalysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d.String())
	}
	if t.Failed() {
		t.Fatalf("nclint reports %d finding(s) on the repo; fix them or suppress with //nolint:nc <reason>", len(res.Diagnostics))
	}
	if res.Suppressed == 0 {
		t.Fatal("expected at least one //nolint:nc suppression (the deliberate violations documented in DESIGN.md)")
	}
	t.Logf("nclint clean: %d packages, %d deliberate suppressions", len(pkgs), res.Suppressed)
}

// testOnlyAllow names the exported symbols TestNoTestOnlyExports accepts
// with no production reference, each with the reason it stays. A key is
// "import/path.Name", "import/path.Type.Method", or "import/path" for a
// whole package.
var testOnlyAllow = map[string]string{
	// Test harnesses: packages that exist to be driven by tests.
	"ncfn/internal/chaostest":             "seeded fault-injection harness",
	"ncfn/internal/leakcheck":             "goroutine-leak harness",
	"ncfn/internal/simclock":              "virtual clock; Virtual's controls are for tests",
	"ncfn/internal/procnet":               "multi-process lifecycle harness",
	"ncfn/internal/analysis/analysistest": "golden-test harness of the analyzers",

	// Fault injection: the levers the chaos and resilience tests pull.
	"ncfn/internal/emunet.Network.PartitionBoth": "emunet fault injection",
	"ncfn/internal/emunet.Network.HealLink":      "emunet fault injection",
	"ncfn/internal/emunet.Network.HealAll":       "emunet fault injection",
	"ncfn/internal/cloud.Cloud.RestartInstance":  "cloud fault injection",
	"ncfn/internal/cloud.Cloud.FailLaunches":     "cloud fault injection",
	"ncfn/internal/cloud.Cloud.Crashes":          "cloud fault injection: what it delivered",
	"ncfn/internal/cloud.Cloud.LaunchFailures":   "cloud fault injection: what it delivered",

	// Packet-buffer accounting: the double-put detector tests switch on.
	"ncfn/internal/buffer.SetAccounting": "buffer accounting",
	"ncfn/internal/buffer.DoublePuts":    "buffer accounting",

	// Reference ops the field and kernel tests compare against.
	"ncfn/internal/gf.Div": "reference op for the inverse and kernel tests",
	"ncfn/internal/gf.Exp": "reference op for the generator tests",

	// Seams: tests in other packages read them to check behaviour that
	// stays, so an in-package export_test.go cannot hold them.
	"ncfn/internal/dataplane.VNF.SessionStoreStats": "chaostest and buffer's differential test read the store's size",
	"ncfn/internal/emunet.HasBatchIO":               "e2e gates its batched-wire telemetry check on it",
}

// testOnlyIfaces names the standard-library interfaces whose methods count
// as reached: a method that lets its type satisfy one is called through the
// interface, which no reference names. A key is "import/path.Name", or
// "error". Every interface the module declares counts the same way.
var testOnlyIfaces = map[string]string{
	"error":                     "Error is called by whoever formats the error",
	"fmt.Stringer":              "String is called by fmt",
	"flag.Value":                "Set is called by the flag package",
	"encoding/json.Marshaler":   "MarshalJSON is called by encoding/json",
	"encoding/json.Unmarshaler": "UnmarshalJSON is called by encoding/json",
}

// TestNoTestOnlyExports fails on every exported function, method, type or
// var whose only references, outside its own declaration, sit in _test.go
// files: production code that only tests reach. Delete such a symbol, give
// it a production caller, or move it into an in-package export_test.go;
// testOnlyAllow holds the few that stay, with their reasons.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks every package in the module")
	}
	pkgs, err := ncanalysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	for _, key := range testOnlyExports(pkgs, testOnlyAllow) {
		t.Errorf("%s is referenced only by tests: give it a production caller, delete it, or move it into an export_test.go", key)
	}
	// An allowance that covers nothing test-only has outlived its symbol.
	all := testOnlyExports(pkgs, nil)
	for key := range testOnlyAllow {
		covers := false
		for _, got := range all {
			covers = covers || got == key || strings.HasPrefix(got, key+".")
		}
		if !covers {
			t.Errorf("testOnlyAllow names %s, which no longer declares a test-only symbol", key)
		}
	}
}

// TestNoTestOnlyExportsTrips runs the scan over a two-package fixture and
// checks that it reports exactly the symbols only a test, or nothing but the
// symbol itself, reaches.
func TestNoTestOnlyExportsTrips(t *testing.T) {
	fset := token.NewFileSet()
	check := func(path string, imp types.Importer, srcs map[string]string) *ncanalysis.Package {
		t.Helper()
		var files []*ast.File
		for _, name := range []string{"a.go", "a_test.go", "b.go"} {
			if src, ok := srcs[name]; ok {
				f, err := parser.ParseFile(fset, name, src, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
		}
		info := ncanalysis.NewInfo()
		tpkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		return &ncanalysis.Package{Path: path, Fset: fset, Syntax: files, Types: tpkg, TypesInfo: info}
	}
	a := check("fix/a", nil, map[string]string{
		"a.go": `package a

func Used()       {}
func OnlyTested() {}
func Rec(n int) {
	if n > 0 {
		Rec(n - 1)
	}
}

type T struct{ next *T }

func (T) Method()       {}
func (T) Error() string { return "" }

var V = 1
`,
		"a_test.go": `package a

func use() { OnlyTested(); T{}.Method(); _ = V }
`,
	})
	b := check("fix/b", importerFunc(func(string) (*types.Package, error) { return a.Types, nil }), map[string]string{
		"b.go": `package b

import "fix/a"

func f() { a.Used() }
`,
	})
	got := testOnlyExports([]*ncanalysis.Package{a, b}, nil)
	want := []string{"fix/a.OnlyTested", "fix/a.Rec", "fix/a.T", "fix/a.T.Method", "fix/a.V"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("test-only exports = %v, want %v", got, want)
	}
	if got := testOnlyExports([]*ncanalysis.Package{a, b}, map[string]string{"fix/a": "allowed"}); len(got) != 0 {
		t.Fatalf("a package-wide allowance still reports %v", got)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// testOnlyExports returns, sorted, the keys of the exported declarations in
// pkgs that no non-test file references outside the declaration itself and
// that allow does not name.
func testOnlyExports(pkgs []*ncanalysis.Package, allow map[string]string) []string {
	decls := map[string]types.Object{}
	prodRef := map[string]bool{}
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Syntax {
			isTest := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
			// own marks the identifiers inside a declaration that name the
			// declared symbol itself: recursion, a type's self-reference and
			// the receivers of its methods are not callers.
			own := map[*ast.Ident]bool{}
			markOwn := func(n ast.Node, key string) {
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && key != "" && exportKey(info.Uses[id]) == key {
						own[id] = true
					}
					return true
				})
			}
			declare := func(id *ast.Ident) {
				if obj := info.Defs[id]; !isTest && id.IsExported() && exportKey(obj) != "" {
					decls[exportKey(obj)] = obj
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					markOwn(d, exportKey(obj))
					if d.Recv != nil {
						markOwn(d.Recv, exportKey(recvTypeName(obj)))
					}
					declare(d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							markOwn(spec, exportKey(info.Defs[spec.Name]))
							declare(spec.Name)
						case *ast.ValueSpec:
							if d.Tok != token.VAR {
								continue
							}
							for _, name := range spec.Names {
								markOwn(spec, exportKey(info.Defs[name]))
								declare(name)
							}
						}
					}
				}
			}
			if isTest {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !own[id] {
					prodRef[exportKey(info.Uses[id])] = true
				}
				return true
			})
		}
	}

	ifaces := reachedIfaces(pkgs)
	var out []string
	for key, obj := range decls {
		if prodRef[key] || allowed(key, obj, allow) || satisfiesIface(obj, ifaces) {
			continue
		}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// exportKey names a package-level object or a method the way testOnlyAllow
// does, or returns "" for anything else (locals, fields, interface methods).
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if recv := recvTypeName(obj); recv != nil {
		return obj.Pkg().Path() + "." + recv.Name() + "." + obj.Name()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvTypeName returns the named type a method is declared on, or nil when
// obj is not a method of a named type.
func recvTypeName(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// allowed reports whether allow names the symbol or its package.
func allowed(key string, obj types.Object, allow map[string]string) bool {
	_, byKey := allow[key]
	_, byPkg := allow[obj.Pkg().Path()]
	return byKey || byPkg
}

// reachedIfaces returns the interfaces the module declares plus
// testOnlyIfaces resolved against the packages pkgs import, directly or not.
func reachedIfaces(pkgs []*ncanalysis.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			_, listed := testOnlyIfaces[p.Path()+"."+name]
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && (listed || strings.HasPrefix(p.Path(), "ncfn/")) {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
	return ifaces
}

// satisfiesIface reports whether obj is a method through which its receiver
// type (or a pointer to it) implements one of ifaces.
func satisfiesIface(obj types.Object, ifaces []*types.Interface) bool {
	recv := recvTypeName(obj)
	if recv == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == obj.Name() &&
				(types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(recv.Type()), it)) {
				return true
			}
		}
	}
	return false
}
