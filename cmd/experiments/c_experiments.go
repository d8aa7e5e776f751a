package main

import (
	"context"
	"fmt"
	"time"

	"repro"

	"repro/internal/detail"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/gridrouter"
	"repro/internal/hightower"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/search"
	"repro/internal/seq"
)

// runC1 demonstrates that Lee–Moore is a special case of the general
// search: grid successors with h = 0 reproduce the wavefront's optimum and
// comparable work; adding the Manhattan heuristic only shrinks the search.
func runC1(cfg runConfig) {
	t := &table{header: []string{"scene", "method", "expanded", "length"}}
	seeds := 3
	if cfg.quick {
		seeds = 1
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		ix, free := randomScene(seed+100, 200, 8)
		grid, err := gridrouter.FromPlane(ix, 1)
		if err != nil {
			panic(err)
		}
		a, b := free(), free()
		wave, err := grid.LeeMoore(a, b)
		if err != nil || !wave.Found {
			continue
		}
		scene := fmt.Sprintf("seed %d %v->%v", seed, a, b)
		t.add(scene, "Lee-Moore wavefront", wave.Stats.Expanded, wave.Length)
		for _, strat := range []search.Strategy{search.BreadthFirst, search.BestFirst, search.AStar} {
			res, err := grid.Route(a, b, strat)
			if err != nil || !res.Found {
				panic("grid route failed")
			}
			marker := ""
			if res.Length != wave.Length {
				marker = "  << LENGTH MISMATCH"
			}
			t.add("", "search framework: "+strat.String(), res.Stats.Expanded,
				fmt.Sprint(res.Length, marker))
		}
	}
	t.print()
	fmt.Println("  (h=0 strategies match the wavefront's optimum; A* shrinks the same search)")
}

// runC2 measures the gridless win: expansions and time per route as the
// die grows, gridless A* versus grid A* and Lee–Moore.
func runC2(cfg runConfig) {
	dies := []geom.Coord{100, 200, 400}
	if !cfg.quick {
		dies = append(dies, 800)
	}
	t := &table{header: []string{
		"die", "grid pts", "gridless exp", "grid A* exp", "Lee-Moore exp",
		"gridless time", "Lee-Moore time", "speedup"}}
	for _, die := range dies {
		cells := int(die / 40)
		var glExp, gaExp, lmExp []int
		var glT, lmT time.Duration
		queries := 6
		if cfg.quick {
			queries = 3
		}
		ix, free := randomScene(die, die, cells)
		grid, err := gridrouter.FromPlane(ix, 1)
		if err != nil {
			panic(err)
		}
		r := router.New(ix, router.Options{})
		for q := 0; q < queries; q++ {
			a, b := free(), free()
			start := time.Now()
			route, err := r.RoutePoints(a, b)
			glT += time.Since(start)
			if err != nil || !route.Found {
				continue
			}
			start = time.Now()
			wave, err := grid.LeeMoore(a, b)
			lmT += time.Since(start)
			if err != nil || !wave.Found {
				continue
			}
			ga, err := grid.Route(a, b, search.AStar)
			if err != nil {
				panic(err)
			}
			if wave.Length != route.Length {
				fmt.Printf("  !! length mismatch at die %d: %d vs %d\n", die, wave.Length, route.Length)
			}
			glExp = append(glExp, route.Stats.Expanded)
			gaExp = append(gaExp, ga.Stats.Expanded)
			lmExp = append(lmExp, wave.Stats.Expanded)
		}
		t.add(die, grid.Points(), fmtF(mean(glExp)), fmtF(mean(gaExp)), fmtF(mean(lmExp)),
			glT.Round(time.Microsecond), lmT.Round(time.Microsecond),
			fmtR(float64(lmT)/float64(glT)))
	}
	t.print()
	fmt.Println("  (grid work grows with die area; gridless work tracks obstacle count only)")
}

// runC3 measures the Hightower trade: success rate within a probe budget,
// work, and length quality versus the optimal A* route.
func runC3(cfg runConfig) {
	budgets := []int{4, 8, 16, 64}
	seeds := 30
	if cfg.quick {
		seeds = 8
	}
	t := &table{header: []string{
		"probe budget", "probe success", "A* success", "avg probes", "avg len vs optimal"}}
	for _, budget := range budgets {
		tot, ok, aok := 0, 0, 0
		var probes []int
		var ratioSum float64
		var ratioN int
		for seed := int64(0); seed < int64(seeds); seed++ {
			ix, free := randomScene(seed*13+7, 500, 60)
			r := router.New(ix, router.Options{})
			for q := 0; q < 6; q++ {
				a, b := free(), free()
				res := hightower.Route(ix, a, b, hightower.Options{MaxLines: budget})
				route, err := r.RoutePoints(a, b)
				if err != nil {
					panic(err)
				}
				tot++
				if route.Found {
					aok++
				}
				if res.Found {
					ok++
					probes = append(probes, res.Probes)
					if route.Found && route.Length > 0 {
						ratioSum += float64(res.Length) / float64(route.Length)
						ratioN++
					}
				}
			}
		}
		ratio := 0.0
		if ratioN > 0 {
			ratio = ratioSum / float64(ratioN)
		}
		t.add(budget,
			fmt.Sprintf("%d/%d (%.0f%%)", ok, tot, 100*float64(ok)/float64(tot)),
			fmt.Sprintf("%d/%d", aok, tot),
			fmtF(mean(probes)), fmtR(ratio))
	}
	t.print()
	fmt.Println("  (the quick first try fails on a fraction of connections and returns longer")
	fmt.Println("   routes; the maze search connects everything at optimal length)")
}

// runC4 compares the paper's independent regime against classical
// sequential routing with three net orderings.
func runC4(cfg runConfig) {
	seeds := 4
	if cfg.quick {
		seeds = 2
	}
	t := &table{header: []string{"regime", "routed", "failed", "length (routed)", "expanded", "time"}}
	type agg struct {
		length   geom.Coord
		routed   int
		failed   int
		expanded int
		elapsed  time.Duration
	}
	var ind agg
	seqAgg := map[seq.Ordering]*agg{
		seq.LayoutOrder: {}, seq.LongestFirst: {}, seq.ShortestFirst: {},
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		l := randomNetsLayout(seed*311+5, 14, 40)
		ix, err := plane.FromLayout(l)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		res, err := router.New(ix, router.Options{}).RouteLayout(l, 1)
		if err != nil {
			panic(err)
		}
		ind.elapsed += time.Since(start)
		ind.length += res.TotalLength
		ind.routed += len(res.Nets) - len(res.Failed)
		ind.failed += len(res.Failed)
		ind.expanded += res.Stats.Expanded
		for _, ord := range []seq.Ordering{seq.LayoutOrder, seq.LongestFirst, seq.ShortestFirst} {
			sres, err := seq.Route(l, seq.Options{Ordering: ord})
			if err != nil {
				panic(err)
			}
			a := seqAgg[ord]
			a.elapsed += sres.Elapsed
			a.length += sres.TotalLength
			a.routed += len(sres.Nets) - len(sres.Failed)
			a.failed += len(sres.Failed)
			a.expanded += sres.Stats.Expanded
		}
	}
	t.add("independent (paper)", ind.routed, ind.failed, ind.length, ind.expanded, ind.elapsed.Round(time.Millisecond))
	for _, ord := range []seq.Ordering{seq.LayoutOrder, seq.LongestFirst, seq.ShortestFirst} {
		a := seqAgg[ord]
		t.add("sequential "+ord.String(), a.routed, a.failed, a.length, a.expanded, a.elapsed.Round(time.Millisecond))
	}
	t.print()
	fmt.Println("  (sequential totals cover routed nets only — failed nets contribute no wire;")
	fmt.Println("   sequential routing searches more, fails nets outright, and its quality")
	fmt.Println("   depends on the ordering; independent routing has no ordering problem)")
}

// runC5 exercises the congestion extension: the funnel layout pushes more
// nets through a slit than fit; the second pass diverts the affected nets.
func runC5(cfg runConfig) {
	t := &table{header: []string{"nets", "slit capacity", "overflow pass1", "overflow pass2",
		"rerouted", "len pass1", "len pass2"}}
	for _, nNets := range []int{4, 8, 12} {
		res := negotiateFunnel(nNets, genroute.WithPenaltyWeight(300),
			genroute.WithMaxPasses(2), genroute.WithHistory(0, 0))
		cap := "-"
		for _, p := range res.Map.Passages {
			if p.Between == [2]int{0, 1} || p.Between == [2]int{1, 0} {
				cap = fmt.Sprint(p.Capacity)
			}
		}
		first := res.Passes[0]
		if len(res.Passes) == 1 {
			t.add(nNets, cap, first.Overflow, "-", 0, first.TotalLength, "-")
			continue
		}
		second := res.Passes[1]
		t.add(nNets, cap, first.Overflow, second.Overflow,
			len(second.Rerouted), first.TotalLength, second.TotalLength)
	}
	t.print()
	fmt.Println("  (the second pass trades wirelength for overflow relief, as the paper expects)")
}

// runC7 iterates the congestion loop to convergence: the negotiated engine
// (present + history penalty) against the paper's single reroute on the
// same funnel series.
func runC7(cfg runConfig) {
	t := &table{header: []string{"nets", "passes", "overflow trail", "converged",
		"two-pass overflow", "final length"}}
	sizes := []int{4, 8, 12}
	if !cfg.quick {
		sizes = append(sizes, 16)
	}
	for _, nNets := range sizes {
		res := negotiateFunnel(nNets, genroute.WithPenaltyWeight(60),
			genroute.WithMaxPasses(8), genroute.WithHistory(1, 0))
		trail := ""
		for i, p := range res.Passes {
			if i > 0 {
				trail += " -> "
			}
			trail += fmt.Sprint(p.Overflow)
		}
		two := negotiateFunnel(nNets, genroute.WithPenaltyWeight(60),
			genroute.WithMaxPasses(2), genroute.WithHistory(0, 0))
		twoOver := two.Passes[len(two.Passes)-1].Overflow
		t.add(nNets, len(res.Passes), trail, res.Converged, twoOver,
			res.Passes[len(res.Passes)-1].TotalLength)
	}
	t.print()
	fmt.Println("  (history keeps pressure on passages that overflowed before, so the loop")
	fmt.Println("   keeps draining overflow after the single penalized pass has done all it can)")
}

// negotiateFunnel runs the congestion loop over the funnel layout through an
// Engine at pitch 2 (slit capacity 5) with one worker; opts set the
// penalty weight and the pass and history schedule.
func negotiateFunnel(nNets int, opts ...genroute.Option) *genroute.NegotiatedResult {
	opts = append([]genroute.Option{genroute.WithPitch(2), genroute.WithWorkers(1)}, opts...)
	e, err := genroute.NewEngine(gen.Funnel(nNets), opts...)
	if err != nil {
		panic(err)
	}
	res, err := e.RouteNegotiated(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// runC8 scales the router to the macro-grid workload — growing macro
// arrays with neighbor buses, multi-terminal control trees and cross-chip
// hauls — and reports routing time, search effort and effort per net. The
// per-net effort tracking net length rather than the 16x-growing obstacle
// count is the index-driven hot path at work (O(log n) corner and
// visibility queries instead of per-cell scans).
func runC8(cfg runConfig) {
	t := &table{header: []string{"grid", "cells", "nets", "time", "expanded", "exp/net", "length"}}
	sizes := [][2]int{{8, 8}, {16, 16}}
	if !cfg.quick {
		sizes = append(sizes, [2]int{32, 32})
	}
	for _, sz := range sizes {
		l, err := gen.MacroGrid(sz[0], sz[1], 40, 30, 12, 9)
		if err != nil {
			panic(err)
		}
		ix, err := plane.FromLayout(l)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		res, err := router.New(ix, router.Options{}).RouteLayout(l, 0)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if len(res.Failed) != 0 {
			panic(fmt.Sprintf("C8: %d failed nets", len(res.Failed)))
		}
		t.add(fmt.Sprintf("%dx%d", sz[0], sz[1]), len(l.Cells), len(l.Nets),
			elapsed, res.Stats.Expanded, res.Stats.Expanded/len(l.Nets), res.TotalLength)
	}
	t.print()
	fmt.Println("  (per-net effort tracks net length, not obstacle count: per-expansion")
	fmt.Println("   cost is O(log n + answers) in the cells, not O(n) as a scan would be)")
}

// runC6 times the full flow: global routing versus the detailed
// track-assignment stage, across growing chips.
func runC6(cfg runConfig) {
	sizes := []struct{ cells, nets int }{{8, 24}, {16, 48}, {24, 96}}
	if !cfg.quick {
		sizes = append(sizes, struct{ cells, nets int }{32, 192})
	}
	t := &table{header: []string{"cells", "nets", "global time", "detail time",
		"global/total", "tracks", "wires"}}
	for _, sz := range sizes {
		l := randomNetsLayout(int64(sz.cells)*7+3, sz.cells, sz.nets)
		ix, err := plane.FromLayout(l)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		res, err := router.New(ix, router.Options{}).RouteLayout(l, 1)
		if err != nil {
			panic(err)
		}
		globalT := time.Since(start)
		dstart := time.Now()
		dres := detail.Assign(res, detail.Options{})
		la := detail.AssignLayers(res)
		detailT := time.Since(dstart)
		frac := float64(globalT) / float64(globalT+detailT) * 100
		t.add(len(l.Cells), len(l.Nets), globalT.Round(time.Microsecond),
			detailT.Round(time.Microsecond),
			fmt.Sprintf("%.0f%%", frac), dres.TotalTracks,
			fmt.Sprintf("%d (+%d vias)", dres.Wires, la.Vias))
	}
	t.print()
	fmt.Println("  (NOTE: the paper reports global < detailed on its full detailed router with")
	fmt.Println("   layer assignment; our detailed stage is the sketched channel/track step only,")
	fmt.Println("   so the ratio inverts — README.md's flow summary, item 4, lists what it covers)")
}
