package rootcause_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported internal/ functions and methods
// that production code does not call but that stay where they are, each
// with the reason. An entry the tree no longer needs fails the guard, so
// the list cannot go stale.
var testOnlyAllowlist = map[string]string{
	"itemset.FromTxs": "tests build datasets with weights no record stream yields " +
		"(zero-flow and unaggregated rows); it needs Dataset's unexported fields",
}

// reflectiveMethods are called through interfaces the standard library
// declares (fmt.Stringer, error, json.Marshaler, errors.Unwrap), so no
// identifier in the tree names their call sites.
var reflectiveMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "Unwrap": true,
}

// testOnlyExports parses every non-test Go file under root, skipping
// testdata and hidden directories, and returns the exported top-level
// functions and methods declared under root/internal whose name appears
// as an identifier in no parsed file except at a declaration. Keys are
// "pkg.Func" and "pkg.Type.Method", sorted.
//
// It matches by name alone, so a dead method that shares its name with
// a used identifier (Wait, Equal, Len) goes unseen: the guard keeps new
// test-only exports out, it does not prove every export live.
func testOnlyExports(root string) ([]string, error) {
	type decl struct {
		key, name string
	}
	var decls []decl
	used := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		declNames := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !internal || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				if reflectiveMethods[fn.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		if !used[d.name] {
			dead = append(dead, d.key)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// recvType returns the name of a receiver's type, without the pointer.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// TestNoTestOnlyExports fails when an exported internal/ function or
// method has no caller outside tests, and when an allowlist entry is no
// longer needed. Delete the export, move it into its package's
// _test.go files, or, when it must stay, allowlist it with the reason.
func TestNoTestOnlyExports(t *testing.T) {
	dead, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range dead {
		if _, ok := testOnlyAllowlist[key]; !ok {
			t.Errorf("%s is exported from internal/ but has no caller outside tests", key)
		}
	}
	for key := range testOnlyAllowlist {
		if !slices.Contains(dead, key) {
			t.Errorf("allowlist entry %s is stale: production code now uses it, or it is gone", key)
		}
	}
}

// TestTestOnlyExportsFixture runs the detector over a planted tree: an
// unused function and method and a test-only function are flagged; a
// bench-only function, a method reached through an anonymous interface
// assertion and a String method are not.
func TestTestOnlyExportsFixture(t *testing.T) {
	got, err := testOnlyExports(filepath.Join("testdata", "deadexports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"plant.TestOnly",
		"plant.Thing.Unused",
		"plant.Unused",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %q, want %q", got, want)
	}
}
