package nvme_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stampOwners names, for each nvme.IO timeline stamp, the one layer that
// writes it (directories relative to the module root). Every other layer
// only reads: the issuer times its own IOs, the transport stamps the send,
// the schedulers (the Gimbal switch and the baselines) stamp ingress and
// admission, the DRR accounts the vslot wait, and the Submitter stamps the
// device leg.
var stampOwners = map[string][]string{
	"Issued":    {"internal/workload"},
	"Origin":    {"internal/fabric"},
	"Arrival":   {"internal/core", "internal/baseline"},
	"Admit":     {"internal/core", "internal/baseline"},
	"VslotWait": {"internal/core/sched"},
	"DevSubmit": {"internal/nvme"},
	"DevDone":   {"internal/nvme"},
	"GCWait":    {"internal/nvme"},
}

// TestStampsHaveOneWriter type-checks every non-test Go file of the module
// (the nested benchmark module excluded) and fails on any assignment to an
// nvme.IO stamp — a field assignment or a composite-literal key — outside
// the stamp's owning layer.
func TestStampsHaveOneWriter(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := newSourceLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// Load every package first, so the walk below sees each one's info.
	for dir := range ld.dirs {
		if _, err := ld.load(dir); err != nil {
			t.Fatal(err)
		}
	}
	ioType := ld.pkgs["internal/nvme"].Scope().Lookup("IO").Type()
	fields := map[*types.Var]string{}
	st := ioType.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := stampOwners[st.Field(i).Name()]; ok {
			fields[st.Field(i)] = st.Field(i).Name()
		}
	}
	if len(fields) != len(stampOwners) {
		t.Fatalf("nvme.IO has %d of the %d stamps this test owns", len(fields), len(stampOwners))
	}

	var bad []string
	check := func(dir string, pos token.Pos, name string) {
		for _, owner := range stampOwners[name] {
			if dir == owner || strings.HasPrefix(dir, owner+"/") {
				return
			}
		}
		bad = append(bad, ld.fset.Position(pos).String()+": "+name+" written outside "+strings.Join(stampOwners[name], ", "))
	}
	for dir, files := range ld.dirs {
		info := ld.infos[dir]
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							if v, ok := info.Uses[sel.Sel].(*types.Var); ok && fields[v] != "" {
								check(dir, sel.Pos(), fields[v])
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						if v, ok := info.Uses[sel.Sel].(*types.Var); ok && fields[v] != "" {
							check(dir, sel.Pos(), fields[v])
						}
					}
				case *ast.CompositeLit:
					if tv, ok := info.Types[n]; !ok || !types.Identical(tv.Type, ioType) {
						return true
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok && fields[v] != "" {
								check(dir, kv.Pos(), fields[v])
							}
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// sourceLoader type-checks the module's packages from source: imports
// inside the module resolve to its directories, the standard library to
// compiled export data.
type sourceLoader struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string][]*ast.File // module-relative dir → non-test files
	pkgs   map[string]*types.Package
	infos  map[string]*types.Info
}

func newSourceLoader(root string) (*sourceLoader, error) {
	ld := &sourceLoader{
		fset: token.NewFileSet(), std: importer.Default(),
		dirs: map[string][]*ast.File{}, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{},
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ld.module = strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	return ld, filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir // hidden, or a nested module
			}
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err // not Go, or not built here
		}
		f, err := parser.ParseFile(ld.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		ld.dirs[filepath.ToSlash(rel)] = append(ld.dirs[filepath.ToSlash(rel)], f)
		return nil
	})
}

func fileExists(p string) bool { _, err := os.Stat(p); return err == nil }

func (ld *sourceLoader) Import(path string) (*types.Package, error) {
	if path == ld.module {
		return ld.load(".")
	}
	if dir, ok := strings.CutPrefix(path, ld.module+"/"); ok {
		return ld.load(dir)
	}
	return ld.std.Import(path)
}

func (ld *sourceLoader) load(dir string) (*types.Package, error) {
	if p, ok := ld.pkgs[dir]; ok {
		return p, nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: ld}
	p, err := conf.Check(filepath.ToSlash(filepath.Join(ld.module, dir)), ld.fset, ld.dirs[dir], info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[dir], ld.infos[dir] = p, info
	return p, nil
}
