package cellbe

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowlist names the exported internal/ functions and methods
// that stay without a caller outside tests, one per line with its reason.
const uncalledAllowlist = "testdata/uncalled_api.txt"

// TestUncalledExportedAPI lists every exported function and method
// declared in internal/ that no non-test file of the repository calls —
// the commands, the examples, perfbench/ and internal/ itself all count
// as callers — and compares the list with uncalledAllowlist. A new
// uncalled export fails the test: call it, unexport it, delete it, or
// allowlist it with a reason. An allowlisted name that gained a caller
// or went away fails it too, so the list stays exact.
//
// Every package is type-checked from source, so a use names the function
// or method it resolves to: a method is called through its own receiver
// type (an embedding one included), or through an interface method of
// the same name that the receiver type implements.
func TestUncalledExportedAPI(t *testing.T) {
	if raceEnabled {
		t.Skip("type-checks the repository and its standard-library imports from source: about 2 s, 11 s under -race; CI runs it without -race")
	}
	fset := token.NewFileSet()
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := map[string]*types.Package{}
	var load func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == "cellbe" || strings.HasPrefix(path, "cellbe/") {
			return load(path)
		}
		return std.Import(path)
	})}
	// A package's directory is its import path below the module root;
	// perfbench's module path is cellbe/perfbench, so it maps the same way.
	load = func(path string) (*types.Package, error) {
		if pkg, ok := pkgs[path]; ok {
			return pkg, nil
		}
		dir := "." + strings.TrimPrefix(path, "cellbe")
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(path, fset, files, info)
		pkgs[path] = pkg
		return pkg, err
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			return nil // no Go files outside tests
		}
		_, err = load(path.Join("cellbe", filepath.ToSlash(p)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// The exports internal/ declares; the functions and methods, by key,
	// that some identifier uses; and the interface methods it uses.
	decls := map[string]*types.Func{}
	used := map[string]bool{}
	ifaceUses := map[*types.Func]bool{}
	for _, obj := range info.Defs {
		if fn, ok := obj.(*types.Func); ok && fn.Exported() {
			if key := funcKey(fn); key != "" {
				decls[key] = fn
			}
		}
	}
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceUses[fn] = true
			continue
		}
		used[funcKey(fn.Origin())] = true
	}
	calledThroughInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		ptr := recv.Type()
		if _, ok := ptr.(*types.Pointer); !ok {
			ptr = types.NewPointer(ptr)
		}
		for m := range ifaceUses {
			if m.Name() == fn.Name() && types.Implements(ptr, m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		return false
	}

	var uncalled []string
	for key, fn := range decls {
		if !used[key] && !calledThroughInterface(fn) {
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)

	allowed := readAllowlist(t)
	for _, key := range uncalled {
		if _, ok := allowed[key]; !ok {
			t.Errorf("%s (%s) is exported but nothing outside tests calls it: call it, unexport it, delete it, or add it to %s with a reason",
				key, fset.Position(decls[key].Pos()), uncalledAllowlist)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s is in %s but is no longer an uncalled export: drop its line", key, uncalledAllowlist)
	}
}

// funcKey names a function declared in internal/ as its package below
// internal/, its receiver's type name for a method, and its name; it is
// empty for anything else.
func funcKey(fn *types.Func) string {
	pkg, ok := strings.CutPrefix(fn.Pkg().Path(), "cellbe/internal/")
	if !ok {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return pkg + "." + named.Obj().Name() + "." + fn.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// readAllowlist parses uncalledAllowlist: "key reason" per line, blank
// lines and #-comments skipped. Every entry must give a reason.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(uncalledAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", uncalledAllowlist, key)
		}
		allowed[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
