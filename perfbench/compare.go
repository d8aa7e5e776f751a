package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

// deterministic metrics are fixed by the seed: two runs of one commit must
// agree exactly, and any difference between commits is a real change.
var deterministic = map[string]bool{
	"wirelength": true, "overflow": true,
	"search.expanded": true, "search.generated": true, "search.reopened": true, "search.max_open": true,
	"search.ripup_expanded": true, "congest.passes": true, "congest.overflow_pass1": true, "congest.rerouted": true,
}

// report is one run's report line.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Failed   int               `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
}

// sample is one run's value of one metric.
type sample struct {
	seed  int64
	value float64
}

// readReports collects the report lines from the output of any number of
// benchmark runs; every other line is ignored.
func readReports(r io.Reader) ([]report, error) {
	var out []report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"workload"`) {
			continue
		}
		var rep report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, sc.Err()
}

// verdict compares the old (a) and new (b) samples of one metric by the
// rule of the choosing-metrics guide, section 8: a gain needs the new side
// to win nine tenths of the pairs and the medians to differ by more than
// the old side's quartile spread; a regression is a median worse by more
// than the bound; a spread wider than the bound leaves the metric
// unresolved unless every new run beats every old run.
type verdict struct {
	medA, q1A, q3A, medB, q1B, q3B float64
	nA, nB                         int
	win                            float64 // share of pairs the new side wins
	text                           string
}

func compareMetric(m specMetric, a, b []sample) verdict {
	va, vb := values(a), values(b)
	v := verdict{medA: median(va), medB: median(vb), nA: len(va), nB: len(vb)}
	v.q1A, v.q3A = quartiles(va)
	v.q1B, v.q3B = quartiles(vb)
	lower := m.Better != "higher"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	if deterministic[m.Name] {
		v.text = "identical"
		for _, p := range pairs(a, b) {
			if p[0] != p[1] {
				v.text = "changed"
				if better(v.medB, v.medA) {
					v.text = "changed (better)"
				} else if better(v.medA, v.medB) {
					v.text = "changed (worse)"
				}
				break
			}
		}
		return v
	}
	ps := pairs(a, b)
	wins, losses := 0, 0
	for _, p := range ps {
		switch {
		case better(p[1], p[0]):
			wins++
		case better(p[0], p[1]):
			losses++
		}
	}
	if len(ps) > 0 {
		v.win = float64(wins) / float64(len(ps))
	}
	iqrA := v.q3A - v.q1A
	diff := v.medB - v.medA
	if diff < 0 {
		diff = -diff
	}
	allBetter := len(vb) > 0 && len(va) > 0
	for _, x := range vb {
		for _, y := range va {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	worse := 0.0 // relative worsening of the median
	if v.medA != 0 {
		if lower {
			worse = (v.medB - v.medA) / v.medA
		} else {
			worse = (v.medA - v.medB) / v.medA
		}
	}
	spread := 0.0
	if v.medA != 0 {
		spread = iqrA / v.medA
	}
	switch {
	case v.win >= 0.9 && diff > iqrA && better(v.medB, v.medA):
		v.text = "improved"
	case m.Bound == 0 && len(ps) > 0 && float64(losses)/float64(len(ps)) >= 0.9 && diff > iqrA:
		v.text = "regressed"
	case m.Bound == 0:
		v.text = "unresolved"
	case spread > m.Bound && !allBetter:
		v.text = "unresolved"
	case worse > m.Bound:
		v.text = "regressed"
	default:
		v.text = "within bound"
	}
	return v
}

func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.value
	}
	return out
}

// pairs matches old and new samples by seed when both sides ran the same
// seeds, and by position otherwise.
func pairs(a, b []sample) [][2]float64 {
	bySeed := map[int64]float64{}
	for _, x := range b {
		bySeed[x.seed] = x.value
	}
	var out [][2]float64
	for _, x := range a {
		if y, ok := bySeed[x.seed]; ok {
			out = append(out, [2]float64{x.value, y})
		}
	}
	if len(out) == len(a) && len(out) == len(b) {
		return out
	}
	out = out[:0]
	for i := 0; i < len(a) && i < len(b); i++ {
		out = append(out, [2]float64{a[i].value, b[i].value})
	}
	return out
}

// compareMain implements `perfbench compare [-bench BENCHMARK.json] old new`:
// per workload and metric, each side's median and quartiles, the share of
// pairs the new side wins, and a verdict. It exits 1 when any metric
// regressed, any deterministic metric changed, or any run failed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("bench", "BENCHMARK.json", "benchmark definition (metric bounds and directions)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	var bs benchSpec
	b, err := os.ReadFile(*spec)
	if err == nil {
		err = json.Unmarshal(b, &bs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	sides := make([][]report, 2)
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		sides[i], err = readReports(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", path+":", err)
			return 2
		}
	}
	bad := writeComparison(os.Stdout, bs, sides[0], sides[1])
	if bad {
		return 1
	}
	return 0
}

// writeComparison prints the comparison table and reports whether anything
// regressed, changed or failed.
func writeComparison(w io.Writer, bs benchSpec, old, cur []report) bool {
	bad := false
	var names []string
	seen := map[string]bool{}
	for _, r := range append(append([]report(nil), old...), cur...) {
		if r.Failed > 0 {
			fmt.Fprintf(w, "FAILED run: %s seed %d (%d failed operations)\n", r.Workload, r.Seed, r.Failed)
			bad = true
		}
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	collect := func(reps []report, wl, metric string, traced bool) []sample {
		var out []sample
		for _, r := range reps {
			if m, ok := r.Metrics[metric]; ok && r.Workload == wl && r.Trace == traced {
				out = append(out, sample{r.Seed, m.Value})
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-22s %-26s %-6s  %-30s  %-30s  %5s  %s\n", "workload", "metric", "unit", "old median [q1, q3] n", "new median [q1, q3] n", "win", "verdict")
	for _, wl := range names {
		for _, group := range []struct {
			ms     []specMetric
			traced bool
		}{{bs.EndToEnd, false}, {bs.PerLayer, true}} {
			for _, m := range group.ms {
				a, b := collect(old, wl, m.Name, group.traced), collect(cur, wl, m.Name, group.traced)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				v := compareMetric(m, a, b)
				if v.text == "regressed" || strings.HasPrefix(v.text, "changed") {
					bad = true
				}
				fmt.Fprintf(w, "%-22s %-26s %-6s  %-30s  %-30s  %4.0f%%  %s\n", wl, m.Name, m.Unit,
					fmt.Sprintf("%.4g [%.4g, %.4g] %d", v.medA, v.q1A, v.q3A, v.nA),
					fmt.Sprintf("%.4g [%.4g, %.4g] %d", v.medB, v.q1B, v.q3B, v.nB),
					100*v.win, v.text)
			}
		}
	}
	return bad
}
