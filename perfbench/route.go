package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	genroute "repro"
	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/search"
)

const (
	routeGrid    = 32 // one instance: 1024 cells, 2112 nets
	routePitch   = 4  // uncongested: overflow 0 after one pass
	routeMinInst = 8  // instances at least; wirelength and search effort average exactly these
	routeReads   = 25 // single-net reads per instance: 200 at least, enough for a p95
	routeStages  = 3  // instances whose route is split into layer calls when traced
	readSamples  = 400
)

// instSeed derives the layout seed of instance k from the workload seed,
// so one seed names a fixed sequence of layouts. The cost of one layout
// varies by tens of percent from seed to seed (a few multi-terminal nets
// dominate it), so the route and negotiate workloads time many layouts per
// pass and report their median and mean.
func instSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// runRoute is route-macro32: for the window, prepare a session over one
// generated layout after another and route it with RouteAll, each followed
// by a few single-net reads.
func runRoute(ctx context.Context, e *env, r *run) error {
	opts := []genroute.Option{genroute.WithPitch(routePitch), genroute.WithWorkers(2)}
	rng := rand.New(rand.NewSource(e.seed))
	var setups, ops, reads, lengths []float64
	var stats search.Stats
	var routed time.Duration
	var last *genroute.Engine
	m0 := readMem()
	start := time.Now()
	for k := 0; k < routeMinInst || time.Since(start) < e.window; k++ {
		l, err := gen.MacroGrid(routeGrid, routeGrid, 40, 30, 12, instSeed(e.seed, k))
		if err != nil {
			return err
		}
		if e.tr != nil {
			setupStages(e.tr, l, routePitch, r)
		}
		id := e.tr.begin("engine.new", -1)
		t := time.Now()
		eng, err := genroute.NewEngine(l, opts...)
		setups = append(setups, time.Since(t).Seconds())
		e.tr.end(id)
		if err != nil {
			return err
		}
		id = e.tr.begin("engine.route_all", -1)
		t = time.Now()
		res, err := eng.RouteAll(ctx)
		ops = append(ops, sinceMS(t))
		e.tr.end(id)
		r.check(err, fmt.Sprintf("RouteAll instance %d", k))
		if res == nil {
			return fmt.Errorf("RouteAll returned no result: %v", err)
		}
		r.check(checkRouting(eng.Layout(), routePitch, res, eng.Overflow()), fmt.Sprintf("routing check instance %d", k))
		if k < routeMinInst {
			lengths = append(lengths, float64(res.TotalLength))
			addStats(&stats, res.Stats)
			routed += res.Elapsed
		}
		reads = append(reads, readNets(ctx, e, r, eng, rng, routeReads)...)
		if e.tr != nil && k < routeStages {
			flowStages(ctx, e.tr, eng.Layout(), routePitch, r)
		}
		last = eng
		// Every layout starts from a collected heap, so neither its time nor
		// the peak RSS depends on where the previous one left the collector.
		runtime.GC()
	}
	n := float64(len(ops))
	setGoMetrics(r, m0, len(ops))
	r.set("session_mb", retainedMiB(&last), "MiB")
	r.set("setup_s", median(setups), "s")
	setLatency(r, "op_ms", ops, 0)
	// A batch user waits for the whole batch: the mean time per layout.
	r.set("op_ms", mean(ops), "ms")
	setLatency(r, "read_ms", reads, 95)
	r.set("wirelength", mean(lengths), "lu")
	r.set("instances", n, "count")
	setSearchStats(r, stats, routeMinInst)
	r.set("search.expanded_per_s", float64(stats.Expanded)/routed.Seconds(), "1/s")
	if e.tr != nil {
		setLatency(r, "router.net_ms", durations(e.tr.closed(), "engine.route_net"), 95)
	}
	return nil
}

// readNets routes k seeded nets one at a time through Engine.RouteNet and
// returns their latencies in milliseconds.
func readNets(ctx context.Context, e *env, r *run, eng *genroute.Engine, rng *rand.Rand, k int) []float64 {
	l := eng.Layout()
	out := make([]float64, 0, k)
	for _, ni := range sampleIdx(rng, len(l.Nets), k) {
		id := e.tr.begin("engine.route_net", -1)
		t := time.Now()
		nr, err := eng.RouteNet(ctx, l.Nets[ni].Name)
		out = append(out, sinceMS(t))
		e.tr.end(id)
		if err == nil && !nr.Found {
			err = fmt.Errorf("not found")
		}
		r.check(err, "RouteNet "+l.Nets[ni].Name)
	}
	return out
}

// setupStages times NewEngine's stages by calling them from outside in the
// order NewEngine does: validate, index build, passage extraction.
func setupStages(tr *tracer, l *genroute.Layout, pitch int64, r *run) {
	c := l.Clone()
	parent := tr.begin("setup.stages", -1)
	defer tr.end(parent)
	tr.do("layout.validate", parent, func(int) {
		if err := c.Validate(); err != nil {
			r.fail("Validate: %v", err)
		}
	})
	var ix *plane.Index
	tr.do("plane.index", parent, func(int) {
		var err error
		if ix, _, err = plane.FromLayoutSpans(c); err != nil {
			r.fail("FromLayoutSpans: %v", err)
		}
	})
	if ix == nil {
		return
	}
	tr.do("congest.extract", parent, func(int) {
		if _, err := congest.Extract(ix, pitch); err != nil {
			r.fail("Extract: %v", err)
		}
	})
	sp := tr.closed()
	r.set("layout.validate_ms", median(durations(sp, "layout.validate")), "ms")
	r.set("plane.index_ms", median(durations(sp, "plane.index")), "ms")
	r.set("congest.extract_ms", median(durations(sp, "congest.extract")), "ms")
}

// flowStages splits a whole-layout route into its two layer calls, made
// from outside the engine: the router's layout pass and the congestion map
// build over its routes.
func flowStages(ctx context.Context, tr *tracer, l *genroute.Layout, pitch int64, r *run) {
	c := l.Clone()
	ix, err := plane.FromLayout(c)
	if err != nil {
		r.fail("FromLayout: %v", err)
		return
	}
	passages, err := congest.Extract(ix, pitch)
	if err != nil {
		r.fail("Extract: %v", err)
		return
	}
	parent := tr.begin("flow.stages", -1)
	var res *router.LayoutResult
	tr.do("router.route_layout", parent, func(int) {
		res, err = router.New(ix, router.Options{}).RouteLayoutCtx(ctx, c, 2)
	})
	if err != nil || res == nil {
		tr.end(parent)
		r.fail("RouteLayout: %v", err)
		return
	}
	tr.do("congest.build_map", parent, func(int) { buildMap(passages, res) })
	tr.end(parent)
	sp := tr.closed()
	r.set("router.route_layout_ms", median(durations(sp, "router.route_layout")), "ms")
	r.set("congest.build_map_ms", median(durations(sp, "congest.build_map")), "ms")
}

func buildMap(passages []congest.Passage, res *router.LayoutResult) *congest.Map {
	segs := make([][]geom.Seg, len(res.Nets))
	for i := range res.Nets {
		segs[i] = res.Nets[i].Segments
	}
	return congest.BuildMap(passages, segs)
}

// addStats accumulates search effort: sums, except the OPEN high-water
// mark, which is a maximum.
func addStats(sum *search.Stats, st search.Stats) {
	sum.Expanded += st.Expanded
	sum.Generated += st.Generated
	sum.Reopened += st.Reopened
	sum.MaxOpen = max(sum.MaxOpen, st.MaxOpen)
}

// setSearchStats reports search effort summed over n layout passes, per
// pass.
func setSearchStats(r *run, st search.Stats, n float64) {
	r.set("search.expanded", float64(st.Expanded)/n, "count")
	r.set("search.generated", float64(st.Generated)/n, "count")
	r.set("search.reopened", float64(st.Reopened)/n, "count")
	r.set("search.max_open", float64(st.MaxOpen), "count")
}
