package analysis

import (
	"go/types"
	"testing"
)

// TestLoadTypechecksModulePackage smokes the go list + go/types loader on a
// real module package with a non-trivial stdlib closure.
func TestLoadTypechecksModulePackage(t *testing.T) {
	if testing.Short() {
		t.Skip("stdlib closure type-check in -short mode")
	}
	loader := NewLoader("../..")
	pkgs, err := loader.Load("./internal/search")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d root packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Types == nil || p.TypesInfo == nil {
		t.Fatal("package not type-checked")
	}
	if len(p.Errors) > 0 {
		t.Fatalf("module package has type errors: %v", p.Errors[0])
	}
	// Object resolution must be live: the package declares findOrdered.
	if p.Types.Scope().Lookup("Find") == nil && p.Types.Scope().Lookup("findOrdered") == nil {
		t.Error("expected search package scope to resolve declarations")
	}
	// The shared importer must have cached the stdlib closure.
	if _, ok := loader.pkgs["runtime"]; !ok {
		t.Error("stdlib dependency runtime not cached by loader")
	}
}

// TestLoadDirResolvesStdlibImports smokes the analysistest loading path: a
// directory outside the module graph whose imports resolve through go list.
func TestLoadDirResolvesStdlibImports(t *testing.T) {
	loader := NewLoader(".")
	p, err := loader.LoadDir("testdata/src/atomicwrite")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if p.Name != "atomicwrite" {
		t.Errorf("package name = %q, want atomicwrite", p.Name)
	}
	fn, ok := p.Types.Scope().Lookup("writeNoSync").(*types.Func)
	if !ok {
		t.Fatal("func writeNoSync not in package scope")
	}
	// Its first parameter must have resolved to the real *os.File.
	params := fn.Type().(*types.Signature).Params()
	if params.Len() == 0 {
		t.Fatal("writeNoSync has no parameters")
	}
	ptr, ok := params.At(0).Type().(*types.Pointer)
	if !ok {
		t.Fatalf("writeNoSync's first parameter = %v, want *os.File", params.At(0).Type())
	}
	if named, ok := ptr.Elem().(*types.Named); !ok || named.Obj().Pkg().Path() != "os" || named.Obj().Name() != "File" {
		t.Errorf("writeNoSync's first parameter = %v, want *os.File", params.At(0).Type())
	}
}
