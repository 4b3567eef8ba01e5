package facechange_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions, methods and config fields
// that no non-test code reaches but that stay anyway, each with the reason.
// Keys are "<pkg>.<Func>", "<pkg>.<Recv>.<Method>" or, for a config field,
// "<pkg>.<Struct>.<Field>", where <pkg> is the import path.
var surfaceAllowlist = map[string]string{
	// Interface methods: the standard library calls them.
	"facechange.ProfileError.Unwrap":                   "errors.Is/As unwrap a profiling failure to its cause",
	"facechange.ProfileErrors.Unwrap":                  "errors.Is/As reach each app's failure in a batch",
	"facechange/internal/telemetry.Kind.MarshalJSON":   "encoding/json writes event kinds by name",
	"facechange/internal/telemetry.Kind.UnmarshalJSON": "encoding/json reads event kinds by name",
	// Observables that tests in another package read.
	"facechange/internal/fleet.ChunkStore.DupPuts": "shard's failover soak asserts no resident chunk is fetched again",
	"facechange/internal/mem.Host.LivePages":       "core and migrate tests assert shadow pages are freed",
	"facechange/internal/hv.Machine.Instructions":  "the root guest-execution benchmark reports instructions per second",
	"facechange/internal/isa.Disasm":               "kernel's codegen tests decode the generated text",
	"facechange/internal/load.Trace.SimScript":     "load's fuzz test replays a trace through the simulator",
	"facechange/internal/sim.Simulator.RunScript":  "load's fuzz test replays a trace through the simulator",
	// The paper's Section III-B3 feedback loop: fold recovered code back
	// into a view for the next profiling round.
	"facechange/internal/core.Runtime.AmelioratedView": "the view-amelioration step of the paper's feedback loop",
	// Test seams that force a regime or substitute a fake.
	"facechange/internal/sim.Config.SharedCoreWindow":       "forces the adaptive shared-core merge on or off",
	"facechange/internal/kernel.Config.BackgroundThreads":   "starts kjournald and kswapd to test their own-context execution",
	"facechange/internal/fleet/shard.PlaneConfig.Transport": "runs the plane over real TCP sockets in place of in-process pipes",
}

// TestNoTestOnlyExports keeps the library's exported surface to what real
// callers use. It parses every non-test .go file in the tree and fails on
//
//   - an exported function or method in a library package (the root
//     package or internal/) whose name no non-test file references, and
//   - an exported field of a *Config, *Options or *Setup struct in a library
//     package that no non-test file sets, by a composite-literal key, an
//     assignment or an address-of.
//
// Non-test files in cmd/, examples/ and perfbench/ count as callers. The
// match is by name alone, so a name used anywhere keeps every declaration
// of it and the scan under-counts dead code. Methods that only the standard
// library calls through an interface are hits too. A hit is mended by
// deleting the name, or by unexporting it when its own package's tests are
// its only callers; surfaceAllowlist takes only interface methods,
// observables that tests in another package read, and test seams.
func TestNoTestOnlyExports(t *testing.T) {
	s := scanSurface(t)
	for k := range surfaceAllowlist {
		if _, ok := s.decls[k]; !ok {
			t.Errorf("allowlist entry %s names nothing in the tree", k)
		} else if s.used(k) {
			t.Errorf("allowlist entry %s now has a non-test caller; drop it", k)
		}
	}
	var hits []string
	for k := range s.decls {
		if _, ok := surfaceAllowlist[k]; !ok && !s.used(k) {
			hits = append(hits, k)
		}
	}
	sort.Strings(hits)
	for _, k := range hits {
		t.Errorf("%s (%s): exported but reached only from tests", k, s.decls[k])
	}
}

// surface is what the scan found: the library's exported declarations and
// the names that non-test files reference or set.
type surface struct {
	decls  map[string]string // key -> position of the declaration
	fields map[string]bool   // keys that name a config field
	refs   map[string]bool   // identifiers non-test files reference
	sets   map[string]bool   // field names non-test files set
}

// used reports whether non-test code references the function or method k,
// or sets the config field k.
func (s *surface) used(k string) bool {
	name := k[strings.LastIndex(k, ".")+1:]
	if s.fields[k] {
		return s.sets[name]
	}
	return s.refs[name]
}

func scanSurface(t *testing.T) *surface {
	t.Helper()
	s := &surface{
		decls:  map[string]string{},
		fields: map[string]bool{},
		refs:   map[string]bool{},
		sets:   map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		switch dir := filepath.ToSlash(filepath.Dir(path)); {
		case dir == ".":
			s.declare(fset, "facechange", f)
		case strings.HasPrefix(dir, "internal/"):
			s.declare(fset, "facechange/"+dir, f)
		}
		s.use(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// declare records f's exported functions, methods and config fields under
// the import path pkg.
func (s *surface) declare(fset *token.FileSet, pkg string, f *ast.File) {
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
			s.decls[key] = fset.Position(d.Pos()).String()
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
							key := pkg + "." + ts.Name.Name + "." + n.Name
							s.decls[key] = fset.Position(n.Pos()).String()
							s.fields[key] = true
						}
					}
				}
			}
		}
	}
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

// use records the identifiers f references, leaving out the names it
// declares, and the field names it sets.
func (s *surface) use(f *ast.File) {
	declared := map[*ast.Ident]bool{}
	set := func(x ast.Expr) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			s.sets[sel.Sel.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			declared[x.Name] = true
		case *ast.Field:
			for _, id := range x.Names {
				declared[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				s.sets[id.Name] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				set(lhs)
			}
		case *ast.IncDecStmt:
			set(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				set(x.X)
			}
		case *ast.Ident:
			if !declared[x] {
				s.refs[x.Name] = true
			}
		}
		return true
	})
}
