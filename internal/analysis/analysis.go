// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis framework, carrying the four
// project-specific analyzers that statically enforce the engine's
// invariants:
//
//   - maporder: no nondeterministic map iteration on the determinism-critical
//     paths (route byte-identity across worker counts);
//   - ctxpoll: hot-path loops poll cancellation (the poll-every-64-expansions
//     discipline threaded through search/congest/router);
//   - atomicwrite: journal files (session payloads and negotiation
//     checkpoints are folded into them) go through
//     snapshot.WriteFileAtomic, never raw os.WriteFile/os.Create (no torn
//     files);
//   - recoverguard: recover() only inside the blessed guard helpers, so panic
//     isolation stays centralized and the faultinject seams stay visible.
//
// The container this repo builds in has no module proxy access, so the real
// x/tools module cannot be vendored; this package reimplements the small
// slice of its API the suite needs (Analyzer, Pass, Diagnostic, an
// analysistest-style golden harness) on the standard library's go/ast and
// go/types, with a `go list`-driven loader (load.go). The analyzer surface
// is kept source-compatible with x/tools so the suite could migrate to the
// real multichecker wholesale if the dependency ever lands.
//
// # Annotation grammar
//
// A finding that is a true positive structurally but provably harmless in
// context is silenced with a grlint directive comment on the flagged line or
// the line immediately above it:
//
//	//grlint:ordered <reason>   — map iteration whose order cannot escape
//	//grlint:bounded <reason>   — loop provably bounded; no poll needed
//	//grlint:polls <reason>     — loop polls cancellation in a way the
//	                              analyzer cannot see (e.g. via an interface)
//	//grlint:rawwrite <reason>  — deliberate non-atomic file write
//	//grlint:nosync <reason>    — file write whose durability (fsync) is
//	                              provably the caller's responsibility
//	//grlint:recoverguard <reason> — function declaration annotation: this
//	                              function is a blessed panic-isolation guard
//
// Every directive requires a non-empty reason; a bare directive is itself
// reported. The grammar is deliberately per-line, not
// per-file or per-function: each silenced site carries its own
// justification, reviewable in place.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is the one-paragraph description shown by `grlint -help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// directives maps file → line → directives on that line, built lazily
	// from the files' comments.
	directives map[*ast.File]map[int][]directive
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// directive is one parsed //grlint:<kind> <argument> comment.
type directive struct {
	kind string
	arg  string
}

const directivePrefix = "//grlint:"

// parseDirectives indexes every grlint directive of a file by line.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int][]directive {
	out := map[int][]directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			kind, arg, _ := strings.Cut(text, " ")
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], directive{kind: kind, arg: strings.TrimSpace(arg)})
		}
	}
	return out
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Directive reports whether node's line — or the line immediately above it —
// carries a //grlint:<kind> directive, returning its argument. A directive
// with an empty argument is reported as its own diagnostic (the grammar
// requires a reason) and does not silence the finding.
func (p *Pass) Directive(node ast.Node, kind string) (string, bool) {
	f := p.fileOf(node.Pos())
	if f == nil {
		return "", false
	}
	if p.directives == nil {
		p.directives = map[*ast.File]map[int][]directive{}
	}
	byLine, ok := p.directives[f]
	if !ok {
		byLine = parseDirectives(p.Fset, f)
		p.directives[f] = byLine
	}
	line := p.Fset.Position(node.Pos()).Line
	for _, l := range [2]int{line, line - 1} {
		for _, d := range byLine[l] {
			if d.kind != kind {
				continue
			}
			if d.arg == "" {
				// Report at the annotated node, not the comment: the node's
				// line is where a golden `// want` comment can live.
				p.Reportf(node.Pos(), "grlint:%s directive needs a reason", kind)
				return "", false
			}
			return d.arg, true
		}
	}
	return "", false
}

// Inspect walks every file of the pass in source order, calling fn for each
// node; fn returning false prunes the subtree.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Analyzers returns the full grlint suite, in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Maporder, Ctxpoll, Atomicwrite, Recoverguard}
}

// sortDiagnostics orders findings by position (file, offset) then message,
// so driver output is deterministic — the suite lints itself, after all.
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		return ds[i].Message < ds[j].Message
	})
}
