package main

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	genroute "repro"
	"repro/internal/gen"
)

// samplesFor returns the smallest sample count at which percentile p has
// minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := 1
	for {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if n-1-idx >= minBeyond {
			return n
		}
		n++
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesFor(95); got != 200 {
		t.Fatalf("samplesFor(95) = %d, want 200", got)
	}
	if got := samplesFor(50); got != 20 {
		t.Fatalf("samplesFor(50) = %d, want 20", got)
	}
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: percentile must sort
		}
		return out
	}
	if _, ok := percentile(xs(199), 95); ok {
		t.Error("p95 of 199 samples has only 9 beyond it, yet was reported")
	}
	v, ok := percentile(xs(200), 95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v (ok %v), want 190 with 10 beyond", v, ok)
	}
	r := &run{metrics: map[string]metric{}}
	setLatency(r, "x", xs(199), 95)
	if _, ok := r.metrics["x_p95"]; ok {
		t.Error("setLatency reported a p95 resting on 9 samples")
	}
	if r.metrics["x_n"].Value != 199 || r.metrics["x_p50"].Value != 100 {
		t.Errorf("setLatency = %+v", r.metrics)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "eco.commit", Start: d(0), End: d(100)},
		// Overlapping children count once; a child running past its
		// parent's end is clipped.
		{ID: 1, Parent: 0, Name: "layout.validate", Start: d(10), End: d(30)},
		{ID: 2, Parent: 0, Name: "congest.repair", Start: d(20), End: d(50)},
		{ID: 3, Parent: 0, Name: "journal.append", Start: d(90), End: d(120)},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 4, Parent: 2, Name: "router.route_net", Start: d(25), End: d(45)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: d(50), 1: d(20), 2: d(10), 3: d(30), 4: d(20)}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	layers := layerSelf(spans)
	if layers["eco"] != d(50) || layers["router"] != d(20) || layers["congest"] != d(10) {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	tr.do("y", id, func(int) {})
	if id != -1 || tr.closed() != nil {
		t.Fatal("a nil tracer recorded spans")
	}
	tr = newTracer("run")
	p := tr.begin("a.outer", -1)
	tr.do("b.inner", p, func(int) {})
	open := tr.begin("c.open", -1)
	tr.end(p)
	sp := tr.closed()
	if len(sp) != 2 || sp[1].Parent != p || sp[0].Run != "run" {
		t.Fatalf("closed spans = %+v (open span %d must be excluded)", sp, open)
	}
}

func samples(vs ...float64) []sample {
	out := make([]sample, len(vs))
	for i, v := range vs {
		out[i] = sample{seed: int64(i + 1), value: v}
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	lat := specMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	base := samples(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []sample
		want string
	}{
		{"same code", lat, base, samples(101, 100, 100, 99, 101, 99, 100, 100, 100, 101), "within bound"},
		{"faster in every pair", lat, base, samples(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{"slower beyond the bound", lat, base, samples(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "regressed"},
		{"slower within the bound", lat, base, samples(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), "within bound"},
		{"spread wider than the bound", lat, samples(50, 150, 80, 120, 60, 140, 100, 90, 110, 70), samples(100, 100, 100, 100, 100, 100, 100, 100, 100, 100), "unresolved"},
		{"throughput up", specMetric{Name: "req_per_s", Better: "higher", Bound: 0.1}, base, samples(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{"per-layer, no bound", specMetric{Name: "plane.index_ms", Better: "lower"}, base, samples(101, 100, 100, 99, 101, 99, 100, 100, 100, 101), "unresolved"},
		{"per-layer slower", specMetric{Name: "plane.index_ms", Better: "lower"}, base, samples(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), "regressed"},
		{"deterministic equal", specMetric{Name: "wirelength", Better: "lower", Bound: 0.05}, samples(5, 6, 7), samples(5, 6, 7), "identical"},
		{"deterministic drift", specMetric{Name: "wirelength", Better: "lower", Bound: 0.05}, samples(5, 6, 7), samples(6, 7, 8), "changed (worse)"},
	} {
		if got := compareMetric(c.m, c.a, c.b).text; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPairsBySeedThenPosition(t *testing.T) {
	a := []sample{{1, 10}, {2, 20}}
	b := []sample{{2, 21}, {1, 11}}
	if got := pairs(a, b); !reflect.DeepEqual(got, [][2]float64{{10, 11}, {20, 21}}) {
		t.Errorf("pairs by seed = %v", got)
	}
	b = []sample{{7, 11}, {8, 21}}
	if got := pairs(a, b); !reflect.DeepEqual(got, [][2]float64{{10, 11}, {20, 21}}) {
		t.Errorf("pairs by position = %v", got)
	}
}

// mixTrace replays n requests of a seeded op mix and returns the ECO
// requests and the reads interleaved with them.
func mixTrace(t *testing.T, l *genroute.Layout, seed int64, n int) ([]string, []string) {
	t.Helper()
	m, err := newOpMix(l, seed)
	if err != nil {
		t.Fatal(err)
	}
	var ecos, reads []string
	for i := 0; i < n; i++ {
		ops, err := m.nextECO()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(ops)
		if err != nil {
			t.Fatal(err)
		}
		ecos = append(ecos, string(b))
		reads = append(reads, m.nextRead())
	}
	return ecos, reads
}

func TestOpMixSeeded(t *testing.T) {
	l, err := gen.MacroGrid(16, 16, 40, 30, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	e1, r1 := mixTrace(t, l, 42, 60)
	e2, r2 := mixTrace(t, l, 42, 60)
	if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("the same seed gave different op sequences")
	}
	e3, _ := mixTrace(t, l, 43, 60)
	if reflect.DeepEqual(e1, e3) {
		t.Error("different seeds gave the same ECO sequence")
	}

	m, err := newOpMix(l, 42)
	if err != nil {
		t.Fatal(err)
	}
	writer := map[string]bool{}
	for _, n := range m.writer {
		writer[n] = true
	}
	for _, n := range m.reader {
		if writer[n] {
			t.Fatalf("net %q is in both the writer's and the reader's set", n)
		}
	}
	if len(m.writer)+len(m.reader) != len(l.Nets) {
		t.Fatalf("writer %d + reader %d nets != %d", len(m.writer), len(m.reader), len(l.Nets))
	}

	// Applying the sequence to a live engine keeps every read valid and
	// every commit legal, and the paired moves put each cell back.
	const pairs = 3
	eng, err := genroute.NewEngine(l, genroute.WithPitch(4), genroute.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	moves := 0
	for i := 0; i < 2*moveEvery*pairs; i++ {
		ops, err := m.nextECO()
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.Edit()
		for k := range ops {
			if ops[k].Op == "move_cell" {
				moves++
			}
			if err := stage(tx, &ops[k]); err != nil {
				t.Fatalf("request %d op %d: %v", i, k, err)
			}
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := eng.RouteNet(context.Background(), m.nextRead()); err != nil {
			t.Fatalf("read after request %d: %v", i, err)
		}
	}
	if moves != 2*pairs {
		t.Fatalf("%d moves, want %d", moves, 2*pairs)
	}
	for i := range l.Cells {
		if got := eng.Layout().Cells[i].Box; got != l.Cells[i].Box {
			t.Errorf("cell %s ends at %v, started at %v", l.Cells[i].Name, got, l.Cells[i].Box)
		}
	}
}
