package bench

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestTestsAssignNoPackageVariable type-checks the package with its tests
// and fails on any assignment in a _test.go file to a package-level
// variable declared in a non-test file: a test that wants a small run asks
// for Test, it does not turn a knob every concurrent experiment shares.
func TestTestsAssignNoPackageVariable(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-test",
		"-f", "{{.ImportPath}}={{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			exports[path] = file
		}
	}
	bp, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range append(bp.GoFiles, bp.TestGoFiles...) {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := conf.Check(bp.ImportPath, fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(fset.Position(pos).Filename, "_test.go") }
	for _, f := range files[len(bp.GoFiles):] {
		ast.Inspect(f, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{n.X}
			}
			for _, e := range lhs {
				if v := writtenVar(info, e); v != nil && v.Parent() == pkg.Scope() && !isTest(v.Pos()) {
					t.Errorf("%s: a test assigns package variable %s", fset.Position(e.Pos()), v.Name())
				}
			}
			return true
		})
	}
}

// writtenVar is the variable an assignment to e writes into: x for x,
// x.f, x[i], *x and any nesting of them; nil when that is not a variable.
func writtenVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
				return v // another package's variable
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
