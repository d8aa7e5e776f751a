package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoopDirectivesInCtxpollScope fails on a //grlint:bounded or
// //grlint:polls directive in a non-test file that ctxpoll's scope leaves
// out. Only ctxpoll reads those directives, so the loop under such a one
// has left the analyzer silently, typically because it moved to another
// package: add the package to the scope table or drop the directive.
func TestLoopDirectivesInCtxpollScope(t *testing.T) {
	const root = "../.."
	sc := scopes["ctxpoll"]
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// testdata is analyzer input; a directory with its own go.mod is
			// another module, which grlint ./... does not load.
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != root && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if rel = filepath.ToSlash(rel); rel == "." {
			rel = ""
		}
		if sc.matches(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for line, ds := range parseDirectives(fset, f) {
			for _, dir := range ds {
				if dir.kind == "bounded" || dir.kind == "polls" {
					t.Errorf("%s:%d: //grlint:%s in package %q, which ctxpoll does not run on", path, line, dir.kind, rel)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
