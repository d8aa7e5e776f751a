// Benchmarks regenerating the paper's evaluation, one per figure/claim.
// `go run ./cmd/experiments -list` prints the experiment index, and
// README.md's "Verify and benchmark" section lists the benchmark commands;
// `go test -bench=. -benchmem` produces the raw series. Custom metrics:
// expansions/op is the search-effort measure the paper's Figure 1 is about.
package genroute_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"

	"repro/internal/adjust"
	"repro/internal/detail"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/gridrouter"
	"repro/internal/hightower"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/search"
	"repro/internal/seq"
)

// fig1 returns the Figure 1 scene.
func fig1(tb testing.TB) (*plane.Index, geom.Point, geom.Point) {
	tb.Helper()
	l, s, d := gen.Fig1Layout()
	ix, err := plane.FromLayout(l)
	if err != nil {
		tb.Fatal(err)
	}
	return ix, s, d
}

// BenchmarkFig1GridlessAStar is the paper's headline: the gridless A*
// route on the Figure 1 field, expanding a handful of nodes.
func BenchmarkFig1GridlessAStar(b *testing.B) {
	ix, s, d := fig1(b)
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	var exp int
	for i := 0; i < b.N; i++ {
		route, err := r.RoutePoints(s, d)
		if err != nil || !route.Found {
			b.Fatal("route failed")
		}
		exp = route.Stats.Expanded
	}
	b.ReportMetric(float64(exp), "expansions/op")
}

// BenchmarkFig1LeeMoore is the grid baseline on the same scene.
func BenchmarkFig1LeeMoore(b *testing.B) {
	ix, s, d := fig1(b)
	g, err := gridrouter.FromPlane(ix, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var exp int
	for i := 0; i < b.N; i++ {
		res, err := g.LeeMoore(s, d)
		if err != nil || !res.Found {
			b.Fatal("route failed")
		}
		exp = res.Stats.Expanded
	}
	b.ReportMetric(float64(exp), "expansions/op")
}

// BenchmarkFig1GridAStar is grid search with the heuristic — between the
// two extremes.
func BenchmarkFig1GridAStar(b *testing.B) {
	ix, s, d := fig1(b)
	g, err := gridrouter.FromPlane(ix, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var exp int
	for i := 0; i < b.N; i++ {
		res, err := g.Route(s, d, search.AStar)
		if err != nil || !res.Found {
			b.Fatal("route failed")
		}
		exp = res.Stats.Expanded
	}
	b.ReportMetric(float64(exp), "expansions/op")
}

// BenchmarkFig2CornerRule times the ε-rule route of Figure 2.
func BenchmarkFig2CornerRule(b *testing.B) {
	l, s, d := gen.Fig2Layout()
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	r := router.New(ix, router.Options{Cost: router.CornerCost{Ix: ix}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		route, err := r.RoutePoints(s, d)
		if err != nil || !route.Found {
			b.Fatal("route failed")
		}
	}
}

// benchScene builds the shared random scene for the C-series benches.
func benchScene(tb testing.TB, die geom.Coord, cells int) (*plane.Index, []geom.Point) {
	tb.Helper()
	l, err := gen.RandomLayout(gen.Config{
		Seed: 42, Width: die, Height: die, Cells: cells,
		MinCell: die / 20, MaxCell: die / 5, Nets: 1, Separation: 4,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		tb.Fatal(err)
	}
	// Deterministic query endpoints on the die diagonal corners and edges.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(die, die),
		geom.Pt(0, die), geom.Pt(die, 0),
		geom.Pt(die/2, 0), geom.Pt(die/2, die),
	}
	return ix, pts
}

// BenchmarkC1FrameworkGridBFS shows the framework running the Lee–Moore
// special case (grid successors, h = 0).
func BenchmarkC1FrameworkGridBFS(b *testing.B) {
	ix, pts := benchScene(b, 120, 6)
	g, err := gridrouter.FromPlane(ix, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Route(pts[0], pts[1], search.BreadthFirst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC2 compares gridless A* with Lee–Moore across die sizes; the
// per-size sub-benchmarks are the series behind the C2 table.
func BenchmarkC2(b *testing.B) {
	for _, die := range []geom.Coord{100, 200, 400} {
		ix, pts := benchScene(b, die, int(die/40))
		r := router.New(ix, router.Options{})
		b.Run(fmt.Sprintf("gridless/die%d", die), func(b *testing.B) {
			b.ReportAllocs()
			var exp int
			for i := 0; i < b.N; i++ {
				route, err := r.RoutePoints(pts[0], pts[1])
				if err != nil || !route.Found {
					b.Fatal("route failed")
				}
				exp = route.Stats.Expanded
			}
			b.ReportMetric(float64(exp), "expansions/op")
		})
		g, err := gridrouter.FromPlane(ix, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("leemoore/die%d", die), func(b *testing.B) {
			b.ReportAllocs()
			var exp int
			for i := 0; i < b.N; i++ {
				res, err := g.LeeMoore(pts[0], pts[1])
				if err != nil || !res.Found {
					b.Fatal("route failed")
				}
				exp = res.Stats.Expanded
			}
			b.ReportMetric(float64(exp), "expansions/op")
		})
	}
}

// BenchmarkC3Hightower times the line probe on its favourable case.
func BenchmarkC3Hightower(b *testing.B) {
	ix, pts := benchScene(b, 500, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hightower.Route(ix, pts[0], pts[1], hightower.Options{})
	}
}

// BenchmarkC3AStarSameQuery is the maze-search cost on the identical query.
func BenchmarkC3AStarSameQuery(b *testing.B) {
	ix, pts := benchScene(b, 500, 12)
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RoutePoints(pts[0], pts[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLayout is the multi-net chip for the C4/C6 benches.
func benchLayout(tb testing.TB) *layout.Layout {
	tb.Helper()
	l, err := gen.RandomLayout(gen.Config{Seed: 7, Cells: 12, Nets: 30, Separation: 10})
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// BenchmarkC4Independent routes all nets independently (sequential
// single-worker, so the comparison with the ordered regime is like for
// like).
func BenchmarkC4Independent(b *testing.B) {
	l := benchLayout(b)
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteLayout(l, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC4IndependentParallel is the same workload with concurrent
// workers — the parallelism independent routing makes possible.
func BenchmarkC4IndependentParallel(b *testing.B) {
	l := benchLayout(b)
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteLayout(l, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC4Sequential is the classical ordered regime on the same chip.
func BenchmarkC4Sequential(b *testing.B) {
	l := benchLayout(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := seq.Route(l, seq.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// negotiate prepares an Engine over l and runs one negotiation: the whole
// congestion flow from a layout, which is what one op of the congestion
// benchmarks measures.
func negotiate(b *testing.B, l *layout.Layout, opts ...genroute.Option) *genroute.NegotiatedResult {
	e, err := genroute.NewEngine(l, opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.RouteNegotiated(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkC5TwoPass runs the paper's two-pass congestion flow (two passes,
// no history) on the funnel workload.
func BenchmarkC5TwoPass(b *testing.B) {
	l := gen.Funnel(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := negotiate(b, l, genroute.WithPitch(2), genroute.WithPenaltyWeight(300),
			genroute.WithMaxPasses(2), genroute.WithHistory(0, 0), genroute.WithWorkers(1))
		if res.Passes[0].Overflow == 0 {
			b.Fatal("bench workload should congest")
		}
	}
}

// BenchmarkNegotiatedCongestion runs the N-pass negotiated engine on the
// three congestion-prone generated scenes; passes/op is how many routing
// passes the loop needed and overflow/op where overflow landed when it
// stopped (0 = converged).
func BenchmarkNegotiatedCongestion(b *testing.B) {
	plain := []genroute.Option{genroute.WithPitch(16), genroute.WithPenaltyWeight(100),
		genroute.WithMaxPasses(8), genroute.WithHistory(1, 0)}
	scenes := []struct {
		name  string
		opts  []genroute.Option
		build func() (*layout.Layout, error)
	}{
		// PolyChip overflows on its first pass and drains in 2 passes.
		// GridOfMacros never drains: at pitch 16 every one of its 40
		// corridors (gap 12) has capacity 0, so it runs the whole 8-pass
		// budget and stops at overflow 20. Pitches 4-12 never overflow it,
		// and any pitch above 12 leaves every corridor at capacity 0, so no
		// pitch gives it a drainable overflow.
		{"PolyChip", plain,
			func() (*layout.Layout, error) { return gen.PolyChip(11, 12, 30) }},
		{"GridOfMacros", plain,
			func() (*layout.Layout, error) { return gen.GridOfMacros(4, 4, 60, 40, 12, 5) }},
		// The macro-scale scene (256 macros, 512 nets) runs at ~94% channel
		// utilization: its first pass overflows 37 passage sections. The
		// lockstep engine of PR 2 could not finish this workload — rerouting
		// all affected nets simultaneously made identically-priced nets
		// dodge congestion in unison, and overflow *grew* past 120 instead
		// of draining. The sequential rip-up engine with the escalating
		// present-cost schedule drains it to zero within the pass budget;
		// the CI bench-smoke step asserts overflow/op stays 0.
		{"MacroGrid16", []genroute.Option{genroute.WithPitch(8), genroute.WithPenaltyWeight(40),
			genroute.WithWeightStep(40), genroute.WithHistory(1, 10), genroute.WithMaxPasses(8)},
			func() (*layout.Layout, error) { return gen.MacroGrid(16, 16, 40, 30, 12, 10) }},
	}
	for _, sc := range scenes {
		l, err := sc.build()
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers%d", sc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var passes, overflow int
				opts := append([]genroute.Option{genroute.WithWorkers(workers)}, sc.opts...)
				for i := 0; i < b.N; i++ {
					res := negotiate(b, l, opts...)
					passes = len(res.Passes)
					overflow = res.Passes[passes-1].Overflow
				}
				b.ReportMetric(float64(passes), "passes/op")
				b.ReportMetric(float64(overflow), "overflow/op")
			})
		}
	}
}

// macroNegotiate is the shared body of the large macro-grid negotiation
// benchmarks: an n×n macro array negotiated to convergence with the
// escalating schedule, reporting passes/op, overflow/op and the wall time
// per pass (the engine's preparation included, over all iterations).
func macroNegotiate(b *testing.B, n int, pitch geom.Coord) {
	l, err := gen.MacroGrid(n, n, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var passes, overflow, allPasses int
	for i := 0; i < b.N; i++ {
		res := negotiate(b, l, genroute.WithPitch(pitch), genroute.WithPenaltyWeight(40),
			genroute.WithWeightStep(40), genroute.WithHistory(1, 10), genroute.WithMaxPasses(12))
		passes = len(res.Passes)
		overflow = res.Passes[passes-1].Overflow
		allPasses += passes
	}
	b.ReportMetric(float64(passes), "passes/op")
	b.ReportMetric(float64(overflow), "overflow/op")
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(allPasses), "ms-per-pass")
}

// BenchmarkMacroGrid24Congested measures rip-up at a congested scale: at
// pitch 8 the 24x24 array's corridors (gap 12) hold two tracks, so the
// penalized reroutes of the 24-terminal column control trees dominate, and
// the run ends at the 12-pass budget with overflow left. Its ms-per-pass is
// gated in CI to catch a silent fallback to one successor per corner
// instead of one per corner line.
func BenchmarkMacroGrid24Congested(b *testing.B) {
	macroNegotiate(b, 24, 8)
}

// BenchmarkMacroGrid64Negotiate is the 64x64 workload (4096 macros, over
// 8000 nets) at feasible capacity (pitch 4 → capacity 4 per corridor): the
// whole-flow macro-scale smoke — extraction, 8192 routed nets, the map —
// in tens of seconds, which is what let it out of the GENROUTE_LONG_BENCH
// gate. Passage extraction used to dominate its setup (the quadratic
// extractor grows cubically); the ungated run plus the CI overflow/op=0
// gate pins both the sweep extractor's correctness at 4096 cells and the
// workload's feasibility. The congested stress configuration this scene
// used to carry lives one scale up in BenchmarkMacroGrid128Negotiate:
// under congestion the cost is penalized rerouting of 64-terminal control
// trees — minutes regardless of extraction speed (see the negotiation-tail
// item in ROADMAP.md).
func BenchmarkMacroGrid64Negotiate(b *testing.B) {
	macroNegotiate(b, 64, 4)
}

// BenchmarkMacroGrid128Negotiate is the next scale jump: 16384 macros and
// over 33000 nets, the scale the near-linear extractor unlocks (the
// quadratic one would spend ~15 s per extraction before the first net
// routes). Like the 64x64 bench it runs at feasible capacity (pitch 4):
// whole-flow extraction + routing + map takes minutes of single-threaded
// work, which is why it stays behind the long-bench gate. Congested
// configurations (pitch 6, capacity 3) are not benchable at this scale
// yet — a single sequential rip-up pass over penalized 128-terminal
// control-tree reroutes runs for hours, the negotiation-tail problem
// recorded in ROADMAP.md (region-parallel rip-up is the named follow-on).
//
//	GENROUTE_LONG_BENCH=1 go test -run=NONE -bench=MacroGrid128 -benchtime=1x -timeout 120m .
func BenchmarkMacroGrid128Negotiate(b *testing.B) {
	if os.Getenv("GENROUTE_LONG_BENCH") == "" {
		b.Skip("set GENROUTE_LONG_BENCH=1 to run the 128x128 macro negotiation")
	}
	macroNegotiate(b, 128, 4)
}

// BenchmarkECOReroute is the incremental-rerouting headline: on the
// MacroGrid 32x32 scenario (1024 macros, 2048 nets), Scratch measures a
// full from-scratch engine build plus negotiated route, and Commit measures
// an Engine.Edit transaction that rips out and re-adds 5 nets against the
// prepared session. The acceptance bar for the ECO layer is Commit
// finishing in under 10% of Scratch (measured at ~2% on the reference box);
// TestECOMacroGridDemo asserts the same scene routes byte-identically for
// the unedited nets.
func BenchmarkECOReroute(b *testing.B) {
	l, err := genroute.MacroGrid(32, 32, 40, 30, 12, 9)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("Scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := genroute.NewEngine(l, genroute.WithPitch(1))
			if err != nil {
				b.Fatal(err)
			}
			res, err := e.RouteNegotiated(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatal("demo scene should be uncongested")
			}
		}
	})
	b.Run("Commit", func(b *testing.B) {
		e, err := genroute.NewEngine(l, genroute.WithPitch(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.RouteNegotiated(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := e.Edit()
			// Rip five nets and re-add them under iteration-unique names
			// (same pins), dirtying exactly five nets per commit.
			for k := 0; k < 5; k++ {
				name := e.Layout().Nets[100*k+7].Name
				net := e.Layout().Nets[100*k+7]
				if err := tx.RemoveNet(name); err != nil {
					b.Fatal(err)
				}
				net.Name = fmt.Sprintf("eco%d_%d", i, k)
				if err := tx.AddNet(net); err != nil {
					b.Fatal(err)
				}
			}
			eco, err := tx.Commit(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if !eco.Converged || len(eco.Dirty) != 5 {
				b.Fatalf("commit: converged=%v dirty=%d", eco.Converged, len(eco.Dirty))
			}
		}
	})
}

// BenchmarkECOJournalCommit prices the write-ahead ECO journal at the
// 64x64 macro scale: the same deterministic sequence of 5-net rip/re-add
// commits runs against two prepared sessions — one plain, one with
// WithJournalFile — and the journaled mean per commit must stay within 25%
// of the unjournaled one (CI gates journal-overhead-pct<=25). The
// journaled cost is everything durability adds to a commit: the post-edit
// fingerprint, per-record encode and CRC, and the fsync before each
// install. The journal's base is written by NewEngine and folded after the
// negotiation, outside the timed commits. The two sessions' commits
// interleave, and which goes first alternates, so a slow stretch of the
// machine lands on both sides rather than on one.
func BenchmarkECOJournalCommit(b *testing.B) {
	l, err := genroute.MacroGrid(64, 64, 40, 30, 12, 9)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	prep := func(extra ...genroute.Option) *genroute.Engine {
		opts := append([]genroute.Option{genroute.WithPitch(4)}, extra...)
		e, err := genroute.NewEngine(l, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.RouteNegotiated(ctx); err != nil {
			b.Fatal(err)
		}
		return e
	}
	const commits = 32
	// commit stages and commits the i-th edit on e and returns its time.
	commit := func(e *genroute.Engine, i int) time.Duration {
		start := time.Now()
		tx := e.Edit()
		for k := 0; k < 5; k++ {
			net := e.Layout().Nets[500*k+7]
			if err := tx.RemoveNet(net.Name); err != nil {
				b.Fatal(err)
			}
			net.Name = fmt.Sprintf("eco%d_%d", i, k)
			if err := tx.AddNet(net); err != nil {
				b.Fatal(err)
			}
		}
		eco, err := tx.Commit(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(eco.Dirty) != 5 {
			b.Fatalf("commit dirtied %d nets, want 5", len(eco.Dirty))
		}
		return time.Since(start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		plain := prep()
		journaled := prep(genroute.WithJournalFile(filepath.Join(b.TempDir(), "eco.jrnl")))
		b.StartTimer()
		var tu, tj time.Duration
		for c := 0; c < commits; c++ {
			if c%2 == 0 {
				tu += commit(plain, c)
				tj += commit(journaled, c)
			} else {
				tj += commit(journaled, c)
				tu += commit(plain, c)
			}
		}
		b.ReportMetric(float64(tu)/commits/1e6, "unjournaled-ms/commit")
		b.ReportMetric(float64(tj)/commits/1e6, "journaled-ms/commit")
		b.ReportMetric(100*(float64(tj)-float64(tu))/float64(tu), "journal-overhead-pct")
	}
}

// BenchmarkMacroGridRoute routes the full macro-scale scenario — a 32x32
// macro array (1024 obstacles, 2048 nets including 32-terminal control
// trees and cross-chip hauls). This is the workload where per-expansion
// cost dominates: the index-driven hot path (O(log n) corner/visibility
// queries, pooled zero-alloc search cores, nearest-first Steiner rounds
// that skip the candidates their bound rules out) is what makes it
// tractable. CI gates its expansions/op, which the scene fixes.
func BenchmarkMacroGridRoute(b *testing.B) {
	l, err := gen.MacroGrid(32, 32, 40, 30, 12, 9)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	var exp int
	for i := 0; i < b.N; i++ {
		res, err := r.RouteLayout(l, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failed) != 0 {
			b.Fatalf("failures: %v", res.Failed)
		}
		exp = res.Stats.Expanded
	}
	b.ReportMetric(float64(exp), "expansions/op")
}

// BenchmarkC6GlobalPhase times global routing of the full-flow chip.
func BenchmarkC6GlobalPhase(b *testing.B) {
	l := benchLayout(b)
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteLayout(l, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC6DetailPhase times the detailed stage over the same chip's
// routes.
func BenchmarkC6DetailPhase(b *testing.B) {
	l := benchLayout(b)
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	res, err := router.New(ix, router.Options{}).RouteLayout(l, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detail.Assign(res, detail.Options{})
	}
}

// BenchmarkA2WeightedAStar is the inflated-heuristic ablation point.
func BenchmarkA2WeightedAStar(b *testing.B) {
	ix, pts := benchScene(b, 300, 10)
	r := router.New(ix, router.Options{WeightNum: 2, WeightDen: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.RoutePoints(pts[0], pts[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteinerNet times multi-terminal tree construction.
func BenchmarkSteinerNet(b *testing.B) {
	l, err := gen.RandomLayout(gen.Config{
		Seed: 3, Cells: 10, Nets: 5, MaxTerminals: 6, Separation: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for ni := range l.Nets {
			if _, err := r.RouteNet(&l.Nets[ni]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE1PolygonChip routes a generated polygon-cell chip — the
// orthogonal-polygon extension workload.
func BenchmarkE1PolygonChip(b *testing.B) {
	l, err := gen.PolyChip(11, 12, 30)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	r := router.New(ix, router.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := r.RouteLayout(l, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failed) != 0 {
			b.Fatalf("failures: %v", res.Failed)
		}
	}
}

// BenchmarkE2FeedbackLoop runs the placement-adjustment loop to
// convergence on the funnel workload.
func BenchmarkE2FeedbackLoop(b *testing.B) {
	l := gen.Funnel(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := adjust.Run(l, adjust.Options{Pitch: 2, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("should converge")
		}
	}
}
