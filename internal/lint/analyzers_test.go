package lint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"janusaqp/internal/lint"
	"janusaqp/internal/lint/linttest"
)

// Each analyzer runs over its fixture tree; the `// want` comments in the
// fixtures are the positive cases, every unannotated line is a negative
// case, and the suppression assertions pin the //lint:janusvet-ignore
// accounting. Weakening an analyzer makes a want go unmatched and fails
// the test.

func TestAtomicField(t *testing.T) {
	res := linttest.Run(t, "atomicfield", lint.AtomicField)
	if got := res.Suppressed["atomicfield"]; got != 1 {
		t.Errorf("suppressed[atomicfield] = %d, want 1", got)
	}
}

func TestLockOrder(t *testing.T) {
	res := linttest.Run(t, "lockorder", lint.LockOrder)
	if got := res.Suppressed["lockorder"]; got != 1 {
		t.Errorf("suppressed[lockorder] = %d, want 1", got)
	}
}

func TestFsyncRename(t *testing.T) {
	res := linttest.Run(t, "fsyncrename", lint.FsyncRename)
	if got := res.Suppressed["fsyncrename"]; got != 1 {
		t.Errorf("suppressed[fsyncrename] = %d, want 1", got)
	}
}

func TestSentinelWrap(t *testing.T) {
	res := linttest.Run(t, "sentinelwrap", lint.SentinelWrap)
	if got := res.Suppressed["sentinelwrap"]; got != 1 {
		t.Errorf("suppressed[sentinelwrap] = %d, want 1", got)
	}
}

func TestCtxFlow(t *testing.T) {
	res := linttest.Run(t, "ctxflow", lint.CtxFlow)
	if got := res.Suppressed["ctxflow"]; got != 1 {
		t.Errorf("suppressed[ctxflow] = %d, want 1", got)
	}
}

// TestJanusvetCleanOnTree is the in-repo version of the CI gate: the full
// analyzer suite must produce zero findings over the module. A regression
// that reintroduces a lock inversion, a naked rename, or an unregistered
// sentinel fails here before it fails in CI.
func TestJanusvetCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := lint.LoadPackages("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from module root")
	}
	for _, pkg := range pkgs {
		res, err := lint.Run(pkg, lint.All())
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range res.Diagnostics {
			t.Errorf("%s", d)
		}
	}
}

// TestNoOrphanExports keeps the module free of exported names nothing
// calls. An exported func, method, type, var or const of a non-main
// package is live when non-test code anywhere in the module (bench/
// included) uses it, when a test of another package uses it, or — for a
// method — when it has the name and signature of a method of an interface
// the module uses. A use inside an export counts only once that export is
// live, so a type whose one user is an orphan function is an orphan too.
// Anything else must be deleted or listed in orphanAllowlist with a
// reason.
//
// Every package is type-checked on its own against export data, so one
// declaration is a different types.Object in each importer: objects are
// keyed by qualified name and interfaces matched by method name and
// signature, never by identity.
func TestNoOrphanExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its tests; skipped in -short")
	}
	var srcs, tests []*lint.Package
	for _, dir := range []string{"../..", "../../bench"} {
		pkgs, err := lint.LoadPackages(dir, []string{"./..."})
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		srcs = append(srcs, pkgs...)
		tpkgs, err := loadTestPackages(dir)
		if err != nil {
			t.Fatalf("loading tests of %s: %v", dir, err)
		}
		tests = append(tests, tpkgs...)
	}

	ifaceMethods := map[string]bool{
		// Methods the standard library looks for dynamically, which the
		// module implements without naming the interface.
		"String func() string":               true,
		"MarshalJSON func() ([]byte, error)": true,
		"UnmarshalJSON func([]byte) error":   true,
		"GobEncode func() ([]byte, error)":   true,
		"GobDecode func([]byte) error":       true,
		"Unwrap func() error":                true,
		"Is func(error) bool":                true,
		"As func(any) bool":                  true,
	}
	for _, pkgs := range [][]*lint.Package{srcs, tests} {
		for _, pkg := range pkgs {
			collectInterfaces(pkg.TypesInfo, ifaceMethods)
		}
	}

	// exports holds every candidate; a method that satisfies a used
	// interface or an allowlisted name is live from the start.
	exports := make(map[string]bool)
	live := map[string]bool{"": true}
	for _, pkg := range srcs {
		if pkg.Types.Name() == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				exports[objectKey(obj)] = true
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					exports[objectKey(m)] = true
					live[objectKey(m)] = ifaceMethods[m.Name()+" "+sigString(m)]
				}
			}
		}
	}
	for key := range orphanAllowlist {
		live[key] = true
	}

	// refs maps each used key to the exports whose declarations use it;
	// "" stands for code that is live on its own: non-test code outside
	// every export, and the tests of another package.
	refs := make(map[string]map[string]bool)
	addRef := func(used types.Object, from string) {
		key := objectKey(used)
		if refs[key] == nil {
			refs[key] = make(map[string]bool)
		}
		refs[key][from] = true
	}
	for _, pkg := range srcs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, d := range declSpans(decl, pkg.TypesInfo) {
					from := d.key
					if !exports[from] {
						from = ""
					}
					ast.Inspect(d.node, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if obj := pkg.TypesInfo.Uses[id]; obj != nil && objectKey(obj) != from {
								addRef(obj, from)
							}
						}
						return true
					})
				}
			}
		}
	}
	for _, pkg := range tests {
		for id, obj := range pkg.TypesInfo.Uses {
			if obj.Pkg() == nil || strings.TrimSuffix(pkg.Path, "_test") == obj.Pkg().Path() {
				continue
			}
			if strings.HasSuffix(pkg.Fset.Position(id.Pos()).Filename, "_test.go") {
				addRef(obj, "")
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for key, froms := range refs {
			if live[key] {
				continue
			}
			for from := range froms {
				if live[from] {
					live[key], changed = true, true
					break
				}
			}
		}
	}

	var orphans []string
	for key := range exports {
		if !live[key] {
			orphans = append(orphans, key)
		}
	}
	sort.Strings(orphans)
	for _, key := range orphans {
		t.Errorf("exported %s has no caller: delete it, or allowlist it with a reason", key)
	}
	for key := range orphanAllowlist {
		if !exports[key] {
			t.Errorf("allowlisted %s no longer exists: drop it from orphanAllowlist", key)
			continue
		}
		for from := range refs[key] {
			if from != key && live[from] && orphanAllowlist[from] == "" {
				t.Errorf("allowlisted %s is used by %q: drop it from orphanAllowlist", key, from)
				break
			}
		}
	}
}

// collectInterfaces adds to methods the name and signature of every method
// of an interface the package uses: one it names, or one that types a
// parameter, result or field of something it uses, as sort.Sort takes a
// sort.Interface without the caller spelling it.
func collectInterfaces(info *types.Info, methods map[string]bool) {
	add := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				methods[m.Name()+" "+sigString(m)] = true
			}
		}
	}
	for _, obj := range info.Uses {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	for _, tv := range info.Types {
		if tv.Type == nil {
			continue
		}
		add(tv.Type)
		typ := tv.Type
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		switch u := typ.Underlying().(type) {
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					add(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				add(u.Field(i).Type())
			}
		}
	}
}

// declSpan is one top-level declaration and the key of the object it
// declares ("" when it declares none or several).
type declSpan struct {
	key  string
	node ast.Node
}

// declSpans splits a top-level declaration into one span per declared
// function, type or single-name value spec.
func declSpans(decl ast.Decl, info *types.Info) []declSpan {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []declSpan{{objectKey(info.Defs[d.Name]), d}}
	case *ast.GenDecl:
		var spans []declSpan
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				spans = append(spans, declSpan{objectKey(info.Defs[s.Name]), s})
			case *ast.ValueSpec:
				key := ""
				if len(s.Names) == 1 && info.Defs[s.Names[0]] != nil {
					key = objectKey(info.Defs[s.Names[0]])
				}
				spans = append(spans, declSpan{key, s})
			default:
				spans = append(spans, declSpan{"", s})
			}
		}
		return spans
	}
	return []declSpan{{"", decl}}
}

// orphanAllowlist names the exports TestNoOrphanExports accepts without a
// caller, each with the reason it stays.
var orphanAllowlist = map[string]string{
	// Library surface of the root package.
	"(*janusaqp.Engine).SaveTemplate": "library surface: saves one template's synopsis for a caller that keeps its own storage",
	"(*janusaqp.Engine).LoadTemplate": "library surface: the inverse of SaveTemplate",
	"janusaqp.Count":                  "a focus aggregate Template.Agg can name; the enum stays whole",
	"janusaqp.Avg":                    "a focus aggregate Template.Agg can name; the enum stays whole",

	// References tests compare against.
	"(*janusaqp/internal/maxvar.Oracle).BruteForce1D": "reference: the O(m²) exact answer MaxVariance is checked against",
	"janusaqp/internal/transport.DecodeFrame":         "reference: the byte-slice decoder ReadFrame is checked against, and the frame fuzz target",

	// Kept surface without a caller yet.
	"janusaqp/internal/workload.LoadCSV": "the loader for the paper's real datasets, which wait until their files are in the repository",
}

// objectKey names obj by package path and name, with its receiver for a
// method, so the same declaration seen from two packages gets one key.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// sigString renders a method's signature without its receiver or
// parameter names, with types qualified by package path.
func sigString(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	unnamed := func(tup *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, tup.Len())
		for i := range vars {
			vars[i] = types.NewParam(token.NoPos, nil, "", tup.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	bare := types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic())
	return types.TypeString(bare, func(p *types.Package) string { return p.Path() })
}

// loadTestPackages type-checks the test variants of the packages under
// dir: each package compiled with its _test.go files, and each external
// _test package. lint.LoadPackages loads only non-test files.
func loadTestPackages(dir string) ([]*lint.Package, error) {
	cmd := exec.Command("go", "list", "-test", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,ForTest,DepOnly,GoFiles,ImportMap,Error", "--", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -test: %w\n%s", err, stderr.Bytes())
	}
	type listed struct {
		ImportPath, Name, Dir, Export, ForTest string
		DepOnly                                bool
		GoFiles                                []string
		ImportMap                              map[string]string
		Error                                  *struct{ Err string }
	}
	exports := make(map[string]string)
	var variants []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && p.ForTest != "" {
			variants = append(variants, p)
		}
	}
	var pkgs []*lint.Package
	for _, p := range variants {
		path := p.ForTest
		if strings.HasSuffix(p.Name, "_test") {
			path += "_test"
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := lint.TypecheckFiles(path, files, lint.ExportLookup(exports, p.ImportMap), "")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
