package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestGolden runs every analyzer over its golden package: each testdata
// source carries `// want` expectations for positives and silent lines for
// negatives, including the annotation escape hatches.
func TestGolden(t *testing.T) {
	for _, a := range analysis.Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			analysistest.Run(t, filepath.Join("testdata", "src", a.Name), a)
		})
	}
}

// TestSuiteComplete pins the suite's composition: four analyzers, stable
// order, distinct names (directives and scope table key off the names).
func TestSuiteComplete(t *testing.T) {
	want := []string{"maporder", "ctxpoll", "atomicwrite", "recoverguard"}
	got := analysis.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}

// TestRunScopedClean is the acceptance criterion as a test: the repo's own
// tree must be grlint-clean. It type-checks the whole module plus its
// standard-library closure from source, so it is skipped in -short runs
// (CI runs `go run ./cmd/grlint ./...` in the lint job anyway).
func TestRunScopedClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	findings, err := analysis.RunScoped("../..", "./...")
	if err != nil {
		t.Fatalf("RunScoped: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s: %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
	}
}
