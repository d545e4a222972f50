package rootcause_test

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// narrowTypes are the conversions that can wrap the value of an int,
// uint, int64 or uint64 flag.
var narrowTypes = map[string]bool{
	"int8": true, "int16": true, "int32": true, "rune": true,
	"uint8": true, "byte": true, "uint16": true, "uint32": true,
}

// isFlagCall reports whether e is flag.Int, flag.Uint, flag.Int64 or
// flag.Uint64 called to define a flag.
func isFlagCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "flag" && slices.Contains([]string{"Int", "Uint", "Int64", "Uint64"}, sel.Sel.Name)
}

// flagNarrowings returns each conversion under root/cmd of a
// dereferenced integer flag pointer to a narrower integer type, as
// "dir: T(*x)", sorted. Flag pointers are the variables a file defines
// with isFlagCall, matched by name.
func flagNarrowings(root string) ([]string, error) {
	var found []string
	err := walkSource(root, func(dir string, f *ast.File) {
		if dir != "cmd" && !strings.HasPrefix(dir, "cmd/") {
			return
		}
		flags := make(map[string]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && isFlagCall(rhs) {
						flags[id.Name] = true
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if isFlagCall(v) {
						flags[n.Names[i].Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			typ, ok := call.Fun.(*ast.Ident)
			star, ok2 := call.Args[0].(*ast.StarExpr)
			if !ok || !ok2 || !narrowTypes[typ.Name] {
				return true
			}
			if id, ok := star.X.(*ast.Ident); ok && flags[id.Name] {
				found = append(found, fmt.Sprintf("%s: %s(*%s)", dir, typ.Name, id.Name))
			}
			return true
		})
	})
	slices.Sort(found)
	return found, err
}

// TestNoFlagNarrowing fails when a command converts an integer flag's
// value to a narrower type, where a value out of range would silently
// wrap to a different one. Narrow it with cliflag.Narrow, which exits 2
// naming the flag instead.
func TestNoFlagNarrowing(t *testing.T) {
	found, err := flagNarrowings(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range found {
		t.Errorf("%s narrows a flag without a range check; use cliflag.Narrow", c)
	}
}

// TestFlagNarrowingsFixture runs the guard over a planted command: an
// int and a uint flag narrowed are flagged; a widened flag, a
// conversion to int and a narrowed pointer that is no flag are not.
func TestFlagNarrowingsFixture(t *testing.T) {
	got, err := flagNarrowings(filepath.Join("testdata", "flagnarrow"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cmd/tool: uint16(*port)", "cmd/tool: uint32(*width)"}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %q, want %q", got, want)
	}
}
