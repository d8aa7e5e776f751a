// Command grlint runs the project's invariant analyzers (maporder,
// ctxpoll, atomicwrite, recoverguard — see internal/analysis) over the
// module and reports findings.
//
// Usage:
//
//	go run ./cmd/grlint ./...          # text findings, exit 1 if any
//	go run ./cmd/grlint -json ./...    # machine-readable diagnostics
//
// Exit status: 0 clean, 1 findings, 2 load/type-check failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := analysis.RunScoped(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grlint: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "grlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		writeText(os.Stdout, findings, *dir)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// writeJSON emits findings as one JSON array (always an array, never null,
// so `jq length` and CI annotators need no special casing).
func writeJSON(w io.Writer, findings []analysis.Finding) error {
	if findings == nil {
		findings = []analysis.Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// writeText emits compiler-style file:line:col lines, paths relativized to
// dir when possible.
func writeText(w io.Writer, findings []analysis.Finding, dir string) {
	for _, f := range findings {
		file := f.File
		if rel, err := filepath.Rel(dir, file); err == nil && !filepath.IsAbs(rel) {
			file = rel
		}
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", file, f.Line, f.Column, f.Analyzer, f.Message)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(w, "grlint: %d finding(s)\n", n)
	}
}
