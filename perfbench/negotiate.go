package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	genroute "repro"
	"repro/internal/gen"
	"repro/internal/search"
)

const (
	negGrid   = 8 // one instance: 64 cells, 128 nets
	negPitch  = 8 // 12-unit gaps at pitch 8: capacity 1 per passage
	negPasses = 12
	// negMinInst instances run in every pass whatever the window; the
	// wirelength and the per-pass figures average exactly these, so the
	// counts among them repeat per seed.
	negMinInst = 100
	negReads   = 2 // single-net reads per instance: 200 at least, enough for a p95
)

// runNegotiate is negotiate-congested8: for the window, prepare and
// negotiate one congested instance after another, each followed by a few
// single-net reads.
func runNegotiate(ctx context.Context, e *env, r *run) error {
	opts := []genroute.Option{
		genroute.WithPitch(negPitch), genroute.WithWorkers(2),
		genroute.WithPenaltyWeight(40), genroute.WithWeightStep(40),
		genroute.WithHistory(1, 10), genroute.WithMaxPasses(negPasses),
	}
	rng := rand.New(rand.NewSource(e.seed))
	var setups, ops, reads, lengths []float64
	var ps passSums
	var stats search.Stats
	var last *genroute.Engine
	m0 := readMem()
	start := time.Now()
	for k := 0; k < negMinInst || time.Since(start) < e.window; k++ {
		l, err := gen.MacroGrid(negGrid, negGrid, 40, 30, 12, instSeed(e.seed, k))
		if err != nil {
			return err
		}
		if e.tr != nil {
			setupStages(e.tr, l, negPitch, r)
		}
		id := e.tr.begin("engine.new", -1)
		t := time.Now()
		eng, err := genroute.NewEngine(l, opts...)
		setups = append(setups, time.Since(t).Seconds())
		e.tr.end(id)
		if err != nil {
			return err
		}
		id = e.tr.begin("engine.route_negotiated", -1)
		t = time.Now()
		res, err := eng.RouteNegotiated(ctx)
		ops = append(ops, sinceMS(t))
		e.tr.end(id)
		r.check(err, fmt.Sprintf("RouteNegotiated instance %d", k))
		if res == nil {
			return fmt.Errorf("RouteNegotiated returned no result: %v", err)
		}
		final := res.Final()
		r.check(checkRouting(eng.Layout(), negPitch, final, eng.Overflow()), fmt.Sprintf("routing check instance %d", k))
		if k < negMinInst {
			lengths = append(lengths, float64(final.TotalLength))
			ps.add(res, eng.Overflow())
			addStats(&stats, res.Passes[0].Stats)
		}
		reads = append(reads, readNets(ctx, e, r, eng, rng, negReads)...)
		if e.tr != nil {
			passages, err := extractPassages(eng.Layout(), negPitch)
			if err != nil {
				return err
			}
			id := e.tr.begin("congest.build_map", -1)
			buildMap(passages, final)
			e.tr.end(id)
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
	ps.report(r, negMinInst)
	setSearchStats(r, stats, negMinInst)
	r.set("search.expanded_per_s", float64(stats.Expanded)/(ps.pass1.Seconds()), "1/s")
	if e.tr != nil {
		sp := e.tr.closed()
		r.set("congest.build_map_ms", median(durations(sp, "congest.build_map")), "ms")
		setLatency(r, "router.net_ms", durations(sp, "engine.route_net"), 95)
	}
	return nil
}

// passSums accumulates the per-pass figures NegotiateResult reports.
type passSums struct {
	passes, overflow1, overflow, rerouted, changed, ripupExpanded int
	pass1, ripup                                                  time.Duration
}

func (ps *passSums) add(res *genroute.NegotiatedResult, overflow int) {
	ps.passes += len(res.Passes)
	ps.overflow1 += res.Passes[0].Overflow
	ps.overflow += overflow
	ps.pass1 += res.Passes[0].Elapsed
	for i := 1; i < len(res.Passes); i++ {
		p := res.Passes[i]
		ps.ripup += p.Elapsed
		ps.rerouted += len(p.Rerouted)
		ps.changed += changedNets(res.Results[i-1], res.Results[i], p.Rerouted)
	}
	ps.ripupExpanded += res.Passes[len(res.Passes)-1].Stats.Expanded - res.Passes[0].Stats.Expanded
}

// report sets the congest.* metrics, per instance over n instances.
func (ps *passSums) report(r *run, n float64) {
	r.set("congest.passes", float64(ps.passes)/n, "count")
	r.set("congest.overflow_pass1", float64(ps.overflow1)/n, "count")
	r.set("overflow", float64(ps.overflow)/n, "count")
	r.set("congest.pass1_ms", ms(ps.pass1)/n, "ms")
	r.set("router.route_layout_ms", ms(ps.pass1)/n, "ms")
	r.set("congest.ripup_ms", ms(ps.ripup)/n, "ms")
	r.set("congest.rerouted", float64(ps.rerouted)/n, "count")
	r.set("search.ripup_expanded", float64(ps.ripupExpanded)/n, "count")
	if ps.rerouted > 0 {
		r.set("congest.ms_per_reroute", ms(ps.ripup)/float64(ps.rerouted), "ms")
		r.set("congest.reroute_changed_frac", float64(ps.changed)/float64(ps.rerouted), "ratio")
	}
}

// changedNets counts the rerouted nets whose geometry differs between two
// consecutive routing states: a reroute that lands on its old route was
// wasted work.
func changedNets(before, after *genroute.Result, rerouted []string) int {
	idx := make(map[string]int, len(after.Nets))
	for i := range after.Nets {
		idx[after.Nets[i].Net] = i
	}
	n := 0
	for _, name := range rerouted {
		i, ok := idx[name]
		if !ok || i >= len(before.Nets) {
			n++
			continue
		}
		a, b := before.Nets[i], after.Nets[i]
		if a.Found != b.Found || !slices.Equal(a.SortedSegments(), b.SortedSegments()) {
			n++
		}
	}
	return n
}
