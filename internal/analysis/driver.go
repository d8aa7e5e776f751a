package analysis

import (
	"path/filepath"
	"strings"
)

// Finding is one resolved diagnostic, position already looked up — the
// driver's output unit, shared by grlint's text and JSON renderers.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// scope describes where one analyzer applies. Paths are module-relative
// package paths ("" is the module root, "internal/congest" a subpackage);
// files, when non-empty, restricts the root-package entry to base filenames
// matching any of the given glob patterns.
type scope struct {
	paths []string
	files map[string][]string // module-relative path → base-name globs
}

// everywhere means the analyzer runs on every module package (it scopes
// itself through annotations, as recoverguard does).
var everywhere = scope{}

// scopes is the suite's scope table. It lives in the driver, not the
// analyzers, so analysistest can run an analyzer raw on any testdata
// package; the table mirrors the invariants' blast radius:
//
//   - maporder guards the determinism-critical route/penalty paths: the
//     congest/router/search pipeline, the box tree the router's target
//     queries run on, plus the Engine files that splice results
//     (engine*.go, eco.go). Elsewhere (generators, reports, CLI summaries)
//     map order feeds humans, not routes.
//   - ctxpoll guards the negotiation/search hot path, the box tree's walks
//     included — the only loops that run long enough for a deadline to
//     matter. A //grlint:bounded or //grlint:polls directive outside its
//     scope would be read by nothing; TestLoopDirectivesInCtxpollScope
//     fails on one.
//   - atomicwrite guards the packages that persist the session journal,
//     with the session payloads and negotiation checkpoints folded into it (its
//     fsync-before-ack discipline is checked too).
//   - recoverguard runs everywhere: blessed-guard annotations scope it
//     per-site.
var scopes = map[string]scope{
	"maporder": {
		paths: []string{"", "internal/boxtree", "internal/congest", "internal/router", "internal/search"},
		files: map[string][]string{"": {"engine*.go", "eco.go"}},
	},
	"ctxpoll": {
		paths: []string{"internal/search", "internal/congest", "internal/router", "internal/boxtree"},
	},
	"atomicwrite": {
		paths: []string{"", "internal/serve", "internal/snapshot", "internal/journal"},
	},
	"recoverguard": everywhere,
}

func (s scope) matches(rel string) bool {
	if len(s.paths) == 0 {
		return true
	}
	for _, p := range s.paths {
		if rel == p {
			return true
		}
	}
	return false
}

// fileGlobs returns the base-name glob list restricting this scope within
// the module-relative package rel; nil means every file passes.
func (s scope) fileGlobs(rel string) []string {
	if s.files == nil {
		return nil
	}
	return s.files[rel]
}

// RunScoped loads the packages matching patterns (rooted at dir), runs every
// analyzer over its scoped subset, and returns all findings in deterministic
// (file, offset, message) order. The error is a load/type-check failure, not
// a finding.
func RunScoped(dir string, patterns ...string) ([]Finding, error) {
	loader := NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	modPath := modulePath(pkgs)

	var ds []Diagnostic
	for _, pkg := range pkgs {
		rel, inModule := modRel(modPath, pkg.PkgPath)
		if !inModule {
			continue
		}
		for _, a := range Analyzers() {
			sc := scopes[a.Name]
			if !sc.matches(rel) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      loader.Fset(),
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			if globs := sc.fileGlobs(rel); globs != nil {
				pass.Files = nil
				for i, f := range pkg.Files {
					base := filepath.Base(pkg.GoFiles[i])
					for _, g := range globs {
						if ok, _ := filepath.Match(g, base); ok {
							pass.Files = append(pass.Files, f)
							break
						}
					}
				}
			}
			pass.Report = func(d Diagnostic) { ds = append(ds, d) }
			if _, err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}

	sortDiagnostics(loader.Fset(), ds)
	findings := make([]Finding, 0, len(ds))
	for _, d := range ds {
		pos := loader.Fset().Position(d.Pos)
		findings = append(findings, Finding{
			Analyzer: d.Category,
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Message:  d.Message,
		})
	}
	return findings, nil
}

// modulePath infers the module path from the loaded root packages: the
// shortest package path is the module root (or a proper prefix of every
// other path).
func modulePath(pkgs []*Package) string {
	mod := ""
	for _, p := range pkgs {
		if mod == "" || len(p.PkgPath) < len(mod) {
			mod = p.PkgPath
		}
	}
	if i := strings.Index(mod, "/internal/"); i >= 0 {
		mod = mod[:i]
	}
	if i := strings.Index(mod, "/cmd/"); i >= 0 {
		mod = mod[:i]
	}
	return mod
}

// modRel returns pkgPath relative to the module root ("" for the root
// itself) and whether pkgPath is inside the module at all.
func modRel(modPath, pkgPath string) (string, bool) {
	if pkgPath == modPath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(pkgPath, modPath+"/"); ok {
		return rest, true
	}
	return "", false
}
