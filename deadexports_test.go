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
	"rootcause.RegisterDetector": "the documented extension point for user detectors " +
		"(DESIGN §2 \"Detector registry\"); the built-ins register inside the façade",
	"rootcause.RegisterMiner": "the documented extension point for user miners " +
		"(DESIGN §4); the built-ins register inside internal/miner",
	"rootcause.System.TryIngest": "the non-blocking ingest of the live path; " +
		"whether a caller adopts it or it goes is an open ROADMAP item (10)",
}

// reflectiveMethods are called through interfaces the standard library
// declares (fmt.Stringer, error, json.Marshaler, errors.Unwrap), so no
// identifier in the tree names their call sites.
var reflectiveMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "Unwrap": true,
}

// walkSource parses every non-test Go file under root, skipping
// testdata and hidden directories, and calls fn with each file's
// slash-separated directory relative to root ("." for root itself).
func walkSource(root string, fn func(dir string, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(rel), f)
		return nil
	})
}

// testOnlyExports returns the exported top-level functions and methods
// declared under root/internal whose name appears as an identifier in
// no non-test file except at a declaration, and those declared in
// root's own package (the façade) whose name appears in no non-test
// file under cmd/, examples/ or bench/ — a façade export only the
// façade calls could be unexported. Keys are "pkg.Func" and
// "pkg.Type.Method", sorted.
//
// It matches by name alone, so a dead method that shares its name with
// a used identifier (Wait, Equal, Len) goes unseen: the guard keeps new
// test-only exports out, it does not prove every export live.
func testOnlyExports(root string) ([]string, error) {
	type decl struct {
		key, name string
		facade    bool // declared in root's own package
	}
	var decls []decl
	used := make(map[string]bool)
	usedOutside := make(map[string]bool) // named under cmd/, examples/ or bench/
	err := walkSource(root, func(dir string, f *ast.File) {
		internal := strings.HasPrefix(dir, "internal/")
		outside := false
		for _, top := range []string{"cmd", "examples", "bench"} {
			outside = outside || dir == top || strings.HasPrefix(dir, top+"/")
		}
		declNames := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fn.Name] = true
			if !(internal || dir == ".") || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				if reflectiveMethods[fn.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fn.Name.Name, !internal})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
				usedOutside[id.Name] = usedOutside[id.Name] || outside
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		seen := used
		if d.facade {
			seen = usedOutside
		}
		if !seen[d.name] {
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
// method has no caller outside tests, when a root-package one has none
// under cmd/, examples/ or bench/, and when an allowlist entry is no
// longer needed. Delete the export, move it into its package's
// _test.go files, or, when it must stay, allowlist it with the reason.
func TestNoTestOnlyExports(t *testing.T) {
	dead, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range dead {
		if _, ok := testOnlyAllowlist[key]; !ok {
			t.Errorf("%s is exported but has no caller outside tests (for the root package: none under cmd/, examples/ or bench/)", key)
		}
	}
	for key := range testOnlyAllowlist {
		if !slices.Contains(dead, key) {
			t.Errorf("allowlist entry %s is stale: production code now uses it, or it is gone", key)
		}
	}
}

// TestTestOnlyExportsFixture runs the detector over a planted tree: an
// unused function and method, a test-only function and a root-package
// function only the root package calls are flagged; a bench-only
// function, a method reached through an anonymous interface assertion,
// a String method and root-package functions and methods called from
// cmd/, examples/ or bench/ are not.
func TestTestOnlyExportsFixture(t *testing.T) {
	got, err := testOnlyExports(filepath.Join("testdata", "deadexports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"example.Internal",
		"plant.TestOnly",
		"plant.Thing.Unused",
		"plant.Unused",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %q, want %q", got, want)
	}
}

// testOnlyConfigAllowlist names the exported config fields that no
// caller outside their package sets but that stay settable, each with
// the reason. An entry the tree no longer needs fails the guard.
var testOnlyConfigAllowlist = map[string]string{
	"core.Options.MinCandidates": "bench/extract.go reads it from core.DefaultOptions " +
		"to select the candidate records core would select",
	"eval.ScoreOptions.UsefulPurity": "bench/live.go scores extractions with " +
		"eval.DefaultScoreOptions, so the scoring bar travels in this struct",
	"eval.ScoreOptions.AdditionalFraction": "bench/live.go scores extractions with " +
		"eval.DefaultScoreOptions, so the scoring bar travels in this struct",
}

// isConfigType reports whether a type name marks a configuration struct.
func isConfigType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// testOnlyConfigFields returns the exported fields of the exported
// *Config and *Options structs declared in root's own package or under
// root/internal that no non-test file outside the declaring package
// sets. Setting a field means naming it as a composite-literal key or
// as the selector of an assignment target. Keys are
// "pkg.Type.Field", sorted.
//
// Like testOnlyExports it matches by name alone: a field counts as set
// when any other package sets some field of that name, so two structs
// that share a field name (Workers, Rows) hide each other. The guard
// keeps new test-only knobs out; it does not prove every knob live.
func testOnlyConfigFields(root string) ([]string, error) {
	type field struct {
		key, dir, name string
	}
	var fields []field
	setIn := make(map[string]map[string]bool) // field name -> dirs that set it
	set := func(dir, name string) {
		if setIn[name] == nil {
			setIn[name] = make(map[string]bool)
		}
		setIn[name][dir] = true
	}
	err := walkSource(root, func(dir string, f *ast.File) {
		if dir == "." || strings.HasPrefix(dir, "internal/") {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || !ts.Name.IsExported() || !isConfigType(ts.Name.Name) {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								key := f.Name.Name + "." + ts.Name.Name + "." + id.Name
								fields = append(fields, field{key, dir, id.Name})
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set(dir, id.Name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(dir, sel.Sel.Name)
					}
				}
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	var unset []string
	for _, fl := range fields {
		outside := false
		for dir := range setIn[fl.name] {
			if dir != fl.dir {
				outside = true
				break
			}
		}
		if !outside {
			unset = append(unset, fl.key)
		}
	}
	slices.Sort(unset)
	return unset, nil
}

// TestNoTestOnlyConfigFields fails when an exported config field is set
// by nothing but tests and its own package, and when an allowlist entry
// is no longer needed. A value only tests turn is a knob the running
// system does not have: make it a package constant, or, when it must
// stay, allowlist it with the reason.
func TestNoTestOnlyConfigFields(t *testing.T) {
	unset, err := testOnlyConfigFields(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range unset {
		if _, ok := testOnlyConfigAllowlist[key]; !ok {
			t.Errorf("%s is a config field that nothing outside its package sets except tests", key)
		}
	}
	for key := range testOnlyConfigAllowlist {
		if !slices.Contains(unset, key) {
			t.Errorf("allowlist entry %s is stale: a caller now sets it, or it is gone", key)
		}
	}
}

// TestTestOnlyConfigFieldsFixture runs the config guard over the planted
// tree: fields set only by tests, only by their own package or by
// nothing are flagged, in internal/ and in the root package; fields set
// from cmd/, bench/ or examples/, unexported fields and the fields of
// non-config or unexported structs are not.
func TestTestOnlyConfigFieldsFixture(t *testing.T) {
	got, err := testOnlyConfigFields(filepath.Join("testdata", "deadexports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"example.RunOptions.RootOnly",
		"plant.Config.ByOwnPackage",
		"plant.Config.ByTest",
		"plant.Config.Unset",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %q, want %q", got, want)
	}
}
