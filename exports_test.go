package moas

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsKept lists the exported internal identifiers that no non-test
// file names and that stay on purpose, each with its reason. A key is a
// package directory and a name ("internal/kernel.Kernel.Restore" for a
// method), or a directory or file whose every export is kept.
var exportsKept = map[string]string{
	"internal/kernel.Kernel.Restore":             "the one-kernel form of RestorePart, which the kernel's tests restore through",
	"internal/driver.RunFullScanScenario":        "the batch reference the engine's equivalence tests compare against",
	"internal/bgp.AttrsInterner.SetCap":          "lets tests roll interner epochs at a small cap",
	"internal/simnet.Net.VantagePaths":           "the reference TestCollectorPathsMatchesVantagePaths holds CollectorPaths to",
	"internal/synth/oracle.RunChaos":             "the chaos leg of the oracle, which its tests and CI's chaos-smoke job run",
	"internal/synth.FromStorm":                   "builds the paper's storm shape for the synth and oracle tests, two packages, so no one test file can hold it",
	"internal/mrt.Writer.WriteRIB":               "MRT fixture writer for the readers' tests",
	"internal/mrt.Writer.WritePeerIndexTable":    "MRT fixture writer for the readers' tests",
	"internal/mrt.Writer.WriteBGP4MPStateChange": "MRT fixture writer for the readers' tests",
	"internal/mrt.StateIdle":                     "BGP FSM state codes (RFC 6396 §4.4.1) the fixture writers take",
	"internal/mrt.StateConnect":                  "BGP FSM state code",
	"internal/mrt.StateActive":                   "BGP FSM state code",
	"internal/mrt.StateOpenSent":                 "BGP FSM state code",
	"internal/mrt.StateOpenConfirm":              "BGP FSM state code",
	"internal/mrt.StateEstablished":              "BGP FSM state code",
	"internal/source/rislive/fake.go":            "a RIS Live server for the client's tests",
	"internal/source/bgpd/script.go":             "a scripted BGP peer for the speaker's tests",
	"internal/binenc/binenctest":                 "checks the codecs' tests share",
}

// stdlibMethods are method names a type defines to satisfy a standard
// library interface, which calls them without naming them here.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestExportsHaveCallers keeps internal/ free of exported code that only
// its own tests reach: it parses every non-test Go file of the repository,
// bench/ included, and fails for an exported identifier declared under
// internal/ whose name no non-test file uses outside its declaration,
// unless exportsKept or stdlibMethods names it. The scan is by name, so a
// method counts as used when any call names a method of that name. Run it
// with -v (make deadcode) to list the kept ones.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct{ key, file string }
	var decls []decl
	used := map[string]bool{}
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
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		declared := map[*ast.Ident]bool{}
		add := func(id *ast.Ident, recv string) {
			if !strings.HasPrefix(p, "internal/") || !id.IsExported() {
				return
			}
			declared[id] = true
			key := path.Dir(p) + "." + id.Name
			if recv != "" {
				key = path.Dir(p) + "." + recv + "." + id.Name
				if stdlibMethods[id.Name] {
					return
				}
			}
			decls = append(decls, decl{key, p})
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				add(dd.Name, receiver(dd))
			case *ast.GenDecl:
				for _, sp := range dd.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						add(sp.Name, "")
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							add(n, "")
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	matched := map[string]bool{}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	for _, d := range decls {
		if used[d.key[strings.LastIndex(d.key, ".")+1:]] {
			continue
		}
		keys := []string{d.key, d.file}
		for dir := path.Dir(d.file); dir != "."; dir = path.Dir(dir) {
			keys = append(keys, dir)
		}
		kept := false
		for _, k := range keys {
			if why, ok := exportsKept[k]; ok {
				t.Logf("kept: %s (%s)", d.key, why)
				matched[k], kept = true, true
				break
			}
		}
		if !kept {
			t.Errorf("%s is exported, but no non-test file names it: delete it, move it into its one test user, or keep it in exportsKept with a reason", d.key)
		}
	}
	for k := range exportsKept {
		if !matched[k] {
			t.Errorf("exportsKept names %s, which is gone or has callers now: drop the entry", k)
		}
	}
}

// receiver returns the name of fn's receiver type, or "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	x := fn.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
