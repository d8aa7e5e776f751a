// Command experiments regenerates every figure and claim of the paper's
// evaluation (-list prints the experiment index; README.md's "Verify and
// benchmark" section lists the matching benchmarks).
//
// Usage:
//
//	experiments              # run everything
//	experiments -exp F1,C2   # run selected experiments
//	experiments -quick       # smaller sweeps
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one runnable reproduction unit.
type experiment struct {
	id    string
	title string
	run   func(cfg runConfig)
}

// runConfig is shared experiment configuration.
type runConfig struct {
	quick bool
}

// experiments lists every unit in presentation order.
var experiments = []experiment{
	{"F1", "Figure 1: node expansion of the gridless A* search", runF1},
	{"F2", "Figure 2: the inverted corner rule (with A3 ε sweep)", runF2},
	{"C1", "Claim: Lee-Moore is a special case of the general search", runC1},
	{"C2", "Claim: gridless A* expands far fewer nodes than grid search", runC2},
	{"C3", "Claim: line probing is fast but fails where maze search succeeds", runC3},
	{"C4", "Claim: independent net routing beats sequential ordering", runC4},
	{"C5", "Claim: a congestion-penalized second pass relieves overflow", runC5},
	{"C6", "Claim: global routing is cheaper than detailed routing", runC6},
	{"C7", "Extension: N-pass negotiated congestion drains overflow to zero", runC7},
	{"C8", "Extension: macro-scale routing (32x32 macro grid, thousands of nets)", runC8},
	{"A1", "Ablation: admissibility versus the Lee-Moore optimum", runA1},
	{"A2", "Ablation: heuristic weight (blind ... admissible ... inflated)", runA2},
	{"E1", "Extension: orthogonal-polygon cell outlines", runE1},
	{"E2", "Extension: placement-adjustment feedback loop (convergence)", runE2},
}

func main() {
	var (
		expFlag = flag.String("exp", "", "comma-separated experiment ids (default all)")
		quick   = flag.Bool("quick", false, "smaller sweeps for a fast run")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	cfg := runConfig{quick: *quick}
	ran := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		e.run(cfg)
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: nothing matched -exp; use -list")
		os.Exit(2)
	}
}

// table is a minimal fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// mean returns the arithmetic mean of ints as float.
func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// sortedCopy returns a sorted copy (for medians in reports).
func sortedCopy(xs []int) []int {
	c := append([]int(nil), xs...)
	sort.Ints(c)
	return c
}

// fmtF formats a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtR formats a ratio.
func fmtR(v float64) string { return fmt.Sprintf("%.2fx", v) }
