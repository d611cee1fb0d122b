package cellbe

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
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
// Functions are matched by package and name. Methods are matched by name
// alone (a parse without type information cannot tell receivers apart),
// so a method counts as called when any selector names it, an interface
// call included.
func TestUncalledExportedAPI(t *testing.T) {
	decls := map[string]string{} // key -> position, for internal/ exports
	type funcRef struct{ pkg, name string }
	funcUses := map[funcRef]bool{}
	methodUses := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := path.Join("cellbe", dir) // perfbench's module path is cellbe/perfbench too
		imports := map[string]string{}  // local name -> import path
		for _, im := range f.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvType(fn.Recv.List[0].Type) + "." + name
			}
			decls[strings.TrimPrefix(dir, "internal/")+"."+name] = fset.Position(fn.Pos()).String()
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodUses[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcUses[funcRef{ip, n.Sel.Name}] = true
					}
				}
				ast.Inspect(n.X, visit) // n.Sel names no function of this package
				return false
			case *ast.Ident:
				if !declared[n] {
					funcUses[funcRef{pkg, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var uncalled []string
	for key := range decls {
		parts := strings.Split(key, ".")
		name := parts[len(parts)-1]
		called := methodUses[name]
		if len(parts) == 2 {
			called = funcUses[funcRef{"cellbe/internal/" + parts[0], name}]
		}
		if !called {
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)

	allowed := readAllowlist(t)
	for _, key := range uncalled {
		if _, ok := allowed[key]; !ok {
			t.Errorf("%s (%s) is exported but nothing outside tests calls it: call it, unexport it, delete it, or add it to %s with a reason",
				key, decls[key], uncalledAllowlist)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s is in %s but is no longer an uncalled export: drop its line", key, uncalledAllowlist)
	}
}

// recvType returns the name of a method receiver's type, without the
// pointer or type parameters.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

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
