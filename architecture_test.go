package gdi

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// module is this repository's import path prefix.
const module = "github.com/gdi-go/gdi"

// internalImports maps every package of the module (by its path relative to
// the module root, "." for the root package) to the module packages its
// non-test files import, relative the same way. Nested modules (benchmark/)
// and testdata are not part of this module and are skipped.
func internalImports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	pkgs := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkgs[pkg] == nil {
			pkgs[pkg] = make(map[string]bool)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, module+"/"); ok {
				pkgs[pkg][rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestArchitecture pins the layering: the fabric SPI at the bottom, the two
// backends beside it, the storage primitives, the holder codec and the
// engine above them, and the front ends on top. Only the composition roots —
// the root package and the commands — choose a backend.
func TestArchitecture(t *testing.T) {
	pkgs := internalImports(t)
	backends := []string{"internal/rma", "internal/fabric/tcp"}
	for _, p := range append([]string{".", "internal/fabric", "internal/holder", "internal/core"}, backends...) {
		if pkgs[p] == nil {
			t.Fatalf("package %s not found: the rules below would hold vacuously", p)
		}
	}

	// forbid fails when any package matched by who imports any of deps.
	forbid := func(rule string, who func(pkg string) bool, deps ...string) {
		t.Helper()
		for pkg, imps := range pkgs {
			if !who(pkg) {
				continue
			}
			for _, dep := range deps {
				if imps[dep] {
					t.Errorf("%s: %s imports %s", rule, pkg, dep)
				}
			}
		}
	}
	is := func(names ...string) func(string) bool {
		return func(pkg string) bool {
			for _, n := range names {
				if pkg == "internal/"+n {
					return true
				}
			}
			return false
		}
	}

	for dep := range pkgs["internal/fabric"] {
		t.Errorf("the fabric SPI imports no module package, but imports %s", dep)
	}
	for _, b := range backends {
		for dep := range pkgs[b] {
			if dep != "internal/fabric" {
				t.Errorf("backend %s imports only the fabric SPI, but imports %s", b, dep)
			}
		}
	}
	forbid("only the root package and cmd/ choose a backend", func(pkg string) bool {
		return pkg != "." && !strings.HasPrefix(pkg, "cmd/")
	}, backends...)
	forbid("storage primitives sit below the holder codec and the engine",
		is("locks", "block", "dht", "collective", "exchange"), "internal/holder", "internal/core")
	forbid("the data model sits below the engine",
		is("holder", "lpg", "metadata", "constraint"), "internal/core")
	forbid("the engine sits below its front ends", is("core"),
		"internal/query", "internal/analytics", "internal/workload", "internal/kron", "internal/figures", "internal/baseline")
}
