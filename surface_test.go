package facechange_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions, methods and config fields
// that no non-test code reaches but that stay anyway, each with the reason.
// Keys are "<pkg>.<Func>", "<pkg>.<Recv>.<Method>" or, for a config field,
// "<pkg>.<Struct>.<Field>", where <pkg> is the import path; "<pkg>.<Type>"
// covers every method or field of the type.
var surfaceAllowlist = map[string]string{
	// Interface methods: the standard library calls them.
	"facechange.ProfileError.Unwrap":                   "errors.Is/As unwrap a profiling failure to its cause",
	"facechange.ProfileErrors.Unwrap":                  "errors.Is/As reach each app's failure in a batch",
	"facechange/internal/telemetry.Kind.MarshalJSON":   "encoding/json writes event kinds by name",
	"facechange/internal/telemetry.Kind.UnmarshalJSON": "encoding/json reads event kinds by name",
	// Observables that tests in another package read.
	"facechange/internal/fleet.ChunkStore.DupPuts": "shard's failover soak asserts no resident chunk is fetched again",
	"facechange/internal/fleet.Node.ShardMap":      "shard's plane and soak tests assert every node saw the current shard map",
	"facechange/internal/mem.Host.LivePages":       "core and migrate tests assert shadow pages are freed",
	"facechange/internal/hv.Machine.Instructions":  "the root guest-execution benchmark reports instructions per second",
	"facechange/internal/isa.Disasm":               "kernel's codegen tests decode the generated text",
	"facechange/internal/load.Trace.SimScript":     "load's fuzz test replays a trace through the simulator",
	"facechange/internal/sim.Simulator.RunScript":  "load's fuzz test replays a trace through the simulator",
	// The paper's Section III-B3 feedback loop: fold recovered code back
	// into a view for the next profiling round.
	"facechange/internal/core.Runtime.AmelioratedView": "the view-amelioration step of the paper's feedback loop",
	// The calibrated cycle cost table: hv.DefaultCosts fills every entry.
	"facechange/internal/hv.CostConfig": "the paper-calibrated cost table, one constant per charged event",
	// Test seams that force a regime or substitute a fake.
	"facechange/internal/eval.Table2Config.SharedCore":         "reruns Table II under the shared-core policy; verdicts must not change",
	"facechange/internal/eval.Table2Config.SharedCoreAdaptive": "reruns Table II under the adaptive shared-core policy",
	"facechange/internal/sim.Config.SharedCoreWindow":          "forces the adaptive shared-core merge on or off",
	"facechange/internal/kernel.Config.BackgroundThreads":      "starts kjournald and kswapd to test their own-context execution",
	"facechange/internal/fleet/shard.PlaneConfig.Transport":    "runs the plane over real TCP sockets in place of in-process pipes",
}

// TestNoTestOnlyExports keeps the library's exported surface to what real
// callers use. It type-checks every non-test .go file in the tree and fails
// on
//
//   - an exported function or method in a library package (the root
//     package or internal/) that no non-test use resolves to, and
//   - an exported field of a *Config, *Options or *Setup struct in a library
//     package that no non-test code outside its own package sets, by a
//     composite-literal key, an assignment or an address-of.
//
// Non-test files in cmd/, examples/ and perfbench/ count as callers. Uses
// resolve through go/types, so a name used for one declaration keeps no
// other declaration of that name alive, and a write in the field's own
// package (its defaults, say) makes the field a constant, not a knob. A
// method counts as reached when its type implements an interface that
// non-test code names, or fmt.Stringer, and that has the method; methods
// that only the standard library calls through another interface it does
// not name are hits. A hit is mended by deleting it, or by unexporting it
// when its own package's tests are its only callers; surfaceAllowlist
// takes only interface methods, observables that tests in another package
// read, test seams and one calibrated table, and each entry must cover a
// hit.
func TestNoTestOnlyExports(t *testing.T) {
	s := scanSurface(t, ".", "facechange")
	covered := map[string]bool{}
	for _, k := range s.hits() {
		if _, ok := surfaceAllowlist[k]; ok {
			covered[k] = true
		} else if typ := k[:strings.LastIndex(k, ".")]; surfaceAllowlist[typ] != "" {
			covered[typ] = true
		} else {
			t.Errorf("%s (%s): exported but reached only from tests", k, s.decls[k])
		}
	}
	for k := range surfaceAllowlist {
		if !covered[k] {
			t.Errorf("allowlist entry %s covers no hit: it names nothing, or non-test code now reaches it; drop it", k)
		}
	}
}

// TestSurfaceScanResolvesByType runs the scan over a fixture whose two
// library packages declare the same function and the same config field
// name. Only package a's are used, and only package a's field is set from
// outside its package (b sets its own in its defaults), so a scan that
// matched by name would report nothing.
func TestSurfaceScanResolvesByType(t *testing.T) {
	s := scanSurface(t, filepath.Join("testdata", "surface"), "fixture")
	want := []string{"fixture/internal/b.Config.Knob", "fixture/internal/b.Run"}
	if got := s.hits(); !reflect.DeepEqual(got, want) {
		t.Errorf("hits = %v, want %v", got, want)
	}
}

// surface is what the scan found: the library's exported declarations and
// which of them non-test code reaches.
type surface struct {
	decls map[string]string // key -> position of the declaration
	used  map[string]bool   // keys that non-test code reaches or sets
}

// hits returns the declarations that no non-test code reaches, sorted.
func (s *surface) hits() []string {
	var out []string
	for k := range s.decls {
		if !s.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// scanSurface type-checks the non-test files under root, whose module path
// is module, and resolves every use against the library's declarations.
// The standard library comes from go/importer's export data.
func scanSurface(t *testing.T, root, module string) *surface {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Type-check every package, importing the tree's own packages from
	// source and the rest from export data.
	std := importer.Default()
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if _, ok := files[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		p, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path], infos[path] = p, info
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	s := &surface{decls: map[string]string{}, used: map[string]bool{}}
	keys := map[types.Object]string{}
	var methods []*types.Func // declared methods, for the interface rule
	for _, path := range paths {
		if path == module || strings.HasPrefix(path, module+"/internal/") {
			for _, f := range files[path] {
				for obj, key := range declare(infos[path], path, f) {
					keys[obj] = key
					s.decls[key] = fset.Position(obj.Pos()).String()
					if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
						methods = append(methods, fn)
					}
				}
			}
		}
	}
	// Interfaces non-test code names, and fmt.Stringer, which fmt calls.
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	collectInterfaces(fmtPkg.Scope().Lookup("Stringer").Type(), seen, &ifaces)
	for _, path := range paths {
		info := infos[path]
		for _, f := range files[path] {
			use(info, checked[path], f, func(obj types.Object) {
				if k, ok := keys[obj]; ok {
					s.used[k] = true
				}
			})
		}
		for _, tv := range info.Types {
			collectInterfaces(tv.Type, seen, &ifaces)
		}
	}
	for _, fn := range methods {
		if k := keys[fn]; !s.used[k] && implementsNamed(fn, ifaces) {
			s.used[k] = true
		}
	}
	return s
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare returns f's exported functions, methods and config fields with
// their keys under the import path pkg.
func declare(info *types.Info, pkg string, f *ast.File) map[types.Object]string {
	out := map[types.Object]string{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			out[info.Defs[d.Name]] = key
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !isConfigName(ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							out[info.Defs[n]] = pkg + "." + ts.Name.Name + "." + n.Name
						}
					}
				}
			}
		}
	}
	return out
}

func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Setup")
}

func recvName(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// use reports to reach every function or method that f, a file of pkg,
// uses outside its own body, and every struct field of another package
// that f sets.
func use(info *types.Info, pkg *types.Package, f *ast.File, reach func(types.Object)) {
	set := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
			reach(v.Origin())
		}
	}
	setSel := func(x ast.Expr) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			set(sel.Sel)
		}
	}
	for _, decl := range f.Decls {
		var self types.Object
		if d, ok := decl.(*ast.FuncDecl); ok {
			self = info.Defs[d.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					set(id)
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					setSel(lhs)
				}
			case *ast.IncDecStmt:
				setSel(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					setSel(x.X)
				}
			case *ast.Ident:
				if fn, ok := info.Uses[x].(*types.Func); ok && fn.Origin() != self {
					reach(fn.Origin())
				}
			}
			return true
		})
	}
}

// collectInterfaces adds to out the non-empty interfaces that t is or that
// a function of type t takes or returns.
func collectInterfaces(t types.Type, seen map[*types.Interface]bool, out *[]*types.Interface) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		if u.NumMethods() > 0 && !seen[u] {
			seen[u] = true
			*out = append(*out, u)
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectInterfaces(tup.At(i).Type(), seen, out)
			}
		}
	}
}

// implementsNamed reports whether fn's receiver type implements one of
// ifaces that has a method of fn's name.
func implementsNamed(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}
