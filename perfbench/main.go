// Command perfbench is the repository benchmark: three seeded workloads
// that drive the user-facing flows of genroute end to end (session
// preparation, whole-layout routing, negotiated congestion, ECO commits
// and groutd requests) and a traced mode that splits their time by layer.
//
// It is run through run.sh, which builds it and groutd from source:
//
//	bash perfbench/run.sh --workload route-macro32 --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// Every run prints one report line ({"workload": ...}) holding all the
// metrics it measured, then, as its last line, the result object the
// benchmark contract defines: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. BENCHMARK.md in this directory documents the
// workloads, the metrics and the layer map.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	genroute "repro"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name the metrics of the final result line, in the
// order BENCHMARK.json lists them. Every workload reports every one.
var endToEnd = []string{"setup_s", "op_ms", "wirelength", "session_mb"}

var perLayer = []string{
	"layout.validate_ms", "plane.index_ms", "congest.extract_ms", "congest.build_map_ms",
	"router.route_layout_ms", "router.net_ms_p50", "router.net_ms_p95",
	"search.expanded", "search.generated", "search.max_open", "search.expanded_per_s",
	"go.alloc_mb", "go.gc_cycles", "trace.overhead_pct",
}

// run collects one workload run: its operation counts, the failures it saw
// and every metric it measured (a superset of the result line's).
type run struct {
	workload string
	seed     int64
	traced   bool

	attempted, failed int
	failures          []string
	metrics           map[string]metric
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail counts one failed or incorrect operation; the first few reasons go
// to stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation, failed when err is non-nil.
func (r *run) check(err error, what string) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// env is what a workload needs besides its run record.
type env struct {
	seed    int64
	window  time.Duration
	groutd  string // groutd binary (serve workload)
	scratch string // writable directory inside the checkout
	tr      *tracer
}

// workload runs one measured pass; given a tracer it also records spans and
// the layer metrics. Why each workload exists is recorded in
// BENCHMARK.json and BENCHMARK.md.
type workload struct {
	name string
	fn   func(ctx context.Context, e *env, r *run) error
}

var workloads = []workload{
	{"route-macro32", runRoute},
	{"negotiate-congested8", runNegotiate},
	{"serve-eco-mix32", runServe},
}

func main() {
	// run.sh passes -groutd and -scratch first, then the caller's
	// arguments: the contract's flags, or "compare" and its files.
	var (
		groutd  = flag.String("groutd", "", "groutd binary (built by run.sh)")
		scratch = flag.String("scratch", ".bench_build", "scratch directory inside the checkout")
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *groutd, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	if err := printResult(os.Stdout, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs workload w, traced or not. A traced run records spans
// around every layer call and reports the per-layer metrics; its own
// end-to-end figures stay in its report line, so the tracing overhead can
// also be read as the difference from the untraced runs of the same seed.
func execute(w *workload, seed int64, window time.Duration, traced bool, groutd, scratch string) (*run, error) {
	e := &env{seed: seed, window: window, groutd: groutd, scratch: scratch}
	r := &run{workload: w.name, seed: seed, traced: traced, metrics: map[string]metric{}}
	if traced {
		e.tr = newTracer(fmt.Sprintf("%s-%d", w.name, seed))
	}
	start := time.Now()
	if err := w.fn(context.Background(), e, r); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if _, ok := r.metrics["peak_rss_mb"]; !ok {
		r.set("peak_rss_mb", peakRSSMiB(), "MiB") // in-process workloads
	}
	if !traced {
		return r, nil
	}
	spans := e.tr.closed()
	r.set("trace.spans", float64(len(spans)), "count")
	r.set("trace.overhead_pct", 100*float64(len(spans))*float64(spanCost())/float64(elapsed), "%")
	for layer, d := range layerSelf(spans) {
		r.set("self."+layer+"_ms", ms(d), "ms")
	}
	path := filepath.Join(scratch, "trace", fmt.Sprintf("%s-%d.json", w.name, seed))
	if err := e.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return r, nil
}

// printResult writes the report line (every metric measured) and then the
// contract's result line.
func printResult(f *os.File, r *run) error {
	w := bufio.NewWriter(f)
	report := struct {
		Workload  string            `json:"workload"`
		Seed      int64             `json:"seed"`
		Trace     bool              `json:"trace"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.workload, r.seed, r.traced, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(report)
	if err != nil {
		return err
	}
	w.Write(b)
	w.WriteString("\n")

	names := endToEnd
	if r.traced {
		names = perLayer
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.workload, n)
		}
		out[n] = m
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	w.Write(b)
	w.WriteString("\n")
	return w.Flush()
}

// peakRSSMiB reads this process's peak resident set size.
func peakRSSMiB() float64 { return vmHWM("/proc/self/status") }

// vmHWM reads the VmHWM line of a /proc status file, in MiB (0 if absent).
func vmHWM(path string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMiB collects garbage and returns the heap still in use.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// retainedMiB returns what keeping the session *eng resident costs: the
// live heap with it, minus the live heap once *eng, its only reference, is
// dropped. Unlike the peak RSS, this does not depend on where the collector
// happened to run.
func retainedMiB(eng **genroute.Engine) float64 {
	with := liveHeapMiB()
	runtime.KeepAlive(*eng)
	*eng = nil
	return with - liveHeapMiB()
}

// memSnap is a runtime.MemStats reading for the go.* metrics.
type memSnap struct {
	alloc uint64
	gc    uint32
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.NumGC}
}

// setGoMetrics reports allocation and GC cycles per unit of work since m0.
func setGoMetrics(r *run, m0 memSnap, ops int) {
	if ops == 0 {
		return
	}
	m1 := readMem()
	r.set("go.alloc_mb", float64(m1.alloc-m0.alloc)/float64(ops)/(1<<20), "MiB")
	r.set("go.gc_cycles", float64(m1.gc-m0.gc)/float64(ops), "count")
}

// setLatency reports the median and mean of samples (milliseconds) under
// prefix, plus the named percentile when enough samples lie beyond it.
func setLatency(r *run, prefix string, samples []float64, pct float64) {
	r.set(prefix+"_p50", median(samples), "ms")
	r.set(prefix+"_mean", mean(samples), "ms")
	r.set(prefix+"_n", float64(len(samples)), "count")
	if pct > 0 {
		if v, ok := percentile(samples, pct); ok {
			r.set(fmt.Sprintf("%s_p%g", prefix, pct), v, "ms")
		}
	}
}

// sampleIdx draws k indices from [0, n) with rng, with replacement.
func sampleIdx(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

func sinceMS(t time.Time) float64 { return ms(time.Since(t)) }
