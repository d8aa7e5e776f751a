package congest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
)

func mustPlane(t testing.TB, bounds geom.Rect, cells ...geom.Rect) *plane.Index {
	t.Helper()
	ix, err := plane.New(bounds, cells)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func findPassage(ps []Passage, a, b int) (Passage, bool) {
	for _, p := range ps {
		if (p.Between == [2]int{a, b}) || (p.Between == [2]int{b, a}) {
			return p, true
		}
	}
	return Passage{}, false
}

func TestExtractFacingPair(t *testing.T) {
	// Two cells horizontally adjacent: vertical corridor between them.
	ix := mustPlane(t, geom.R(0, 0, 100, 100),
		geom.R(10, 20, 30, 80), // 0
		geom.R(50, 40, 90, 90), // 1
	)
	ps, err := Extract(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := findPassage(ps, 0, 1)
	if !ok {
		t.Fatal("missing cell-to-cell passage")
	}
	if !p.Vertical {
		t.Error("corridor between horizontally adjacent cells is vertical")
	}
	if p.Rect != geom.R(30, 40, 50, 80) {
		t.Errorf("corridor rect = %v", p.Rect)
	}
	if p.Width != 20 {
		t.Errorf("width = %d, want 20", p.Width)
	}
	if p.Capacity != 6 { // 20/4 + 1
		t.Errorf("capacity = %d, want 6", p.Capacity)
	}
	// Boundary passages exist for each side with positive gap.
	if _, ok := findPassage(ps, Boundary, 0); !ok {
		t.Error("missing boundary passage for cell 0")
	}
}

func TestExtractVerticalAdjacency(t *testing.T) {
	ix := mustPlane(t, geom.R(0, 0, 100, 100),
		geom.R(20, 10, 80, 40),
		geom.R(30, 60, 70, 90),
	)
	ps, err := Extract(ix, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := findPassage(ps, 0, 1)
	if !ok {
		t.Fatal("missing passage")
	}
	if p.Vertical {
		t.Error("corridor between vertically adjacent cells is horizontal")
	}
	if p.Rect != geom.R(30, 40, 70, 60) || p.Width != 20 {
		t.Errorf("rect=%v width=%d", p.Rect, p.Width)
	}
	xs := p.CrossSection()
	if !xs.Vertical() {
		t.Error("horizontal corridor has a vertical cross-section")
	}
}

func TestExtractRejectsIntrudedCorridor(t *testing.T) {
	// A third cell sits inside the would-be corridor: the wide passage
	// must be dropped (the narrow sub-passages with the intruder remain).
	ix := mustPlane(t, geom.R(0, 0, 200, 100),
		geom.R(10, 20, 40, 80),   // 0 left
		geom.R(160, 20, 190, 80), // 1 right
		geom.R(90, 30, 110, 70),  // 2 intruder
	)
	ps, err := Extract(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findPassage(ps, 0, 1); ok {
		t.Error("intruded corridor should be rejected")
	}
	if _, ok := findPassage(ps, 0, 2); !ok {
		t.Error("sub-passage 0-2 should exist")
	}
	if _, ok := findPassage(ps, 1, 2); !ok {
		t.Error("sub-passage 2-1 should exist")
	}
}

func TestExtractBadPitch(t *testing.T) {
	ix := mustPlane(t, geom.R(0, 0, 10, 10))
	if _, err := Extract(ix, 0); err == nil {
		t.Fatal("pitch 0 must fail")
	}
}

func TestBuildMapCountsNetsOnce(t *testing.T) {
	ix := mustPlane(t, geom.R(0, 0, 100, 100),
		geom.R(10, 0, 40, 100),
		geom.R(60, 0, 90, 100),
	)
	ps, err := Extract(ix, 10)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := findPassage(ps, 0, 1)
	if !ok {
		t.Fatal("no corridor")
	}
	xs := p.CrossSection() // horizontal line at y=50, x in [40,60]
	_ = xs
	nets := [][]geom.Seg{
		{geom.S(geom.Pt(50, 0), geom.Pt(50, 100))},                                           // crosses
		{geom.S(geom.Pt(50, 0), geom.Pt(50, 49))},                                            // stops short
		{geom.S(geom.Pt(45, 0), geom.Pt(45, 100)), geom.S(geom.Pt(55, 0), geom.Pt(55, 100))}, // crosses twice, one net
	}
	m := BuildMap(ps, nets)
	pi := -1
	for i := range m.Passages {
		if m.Passages[i].Between == p.Between && m.Passages[i].Rect == p.Rect {
			pi = i
		}
	}
	if pi < 0 {
		t.Fatal("passage lost in map")
	}
	if m.Usage[pi] != 2 {
		t.Fatalf("usage = %d, want 2 (net counted once)", m.Usage[pi])
	}
}

func TestOverflowAccounting(t *testing.T) {
	ps := []Passage{
		{Between: [2]int{0, 1}, Rect: geom.R(10, 0, 14, 100), Vertical: true, Width: 4, Capacity: 2},
		{Between: [2]int{1, 2}, Rect: geom.R(50, 0, 80, 100), Vertical: true, Width: 30, Capacity: 10},
	}
	var nets [][]geom.Seg
	for i := 0; i < 5; i++ {
		x := geom.Coord(10 + i%4)
		nets = append(nets, []geom.Seg{geom.S(geom.Pt(x, 0), geom.Pt(x, 100))})
	}
	m := BuildMap(ps, nets)
	if m.Usage[0] != 5 {
		t.Fatalf("usage = %d, want 5", m.Usage[0])
	}
	over := m.Overflowed()
	if len(over) != 1 || over[0] != 0 {
		t.Fatalf("Overflowed = %v", over)
	}
	if m.TotalOverflow() != 3 {
		t.Fatalf("TotalOverflow = %d, want 3", m.TotalOverflow())
	}
	aff := m.AffectedNets()
	if len(aff) != 5 {
		t.Fatalf("AffectedNets = %v", aff)
	}
}

// funnelLayout: a wall with a narrow slit; several nets whose shortest
// routes all thread the slit, with a longer way around along the chip edge.
func funnelLayout(nNets int) *layout.Layout {
	l := &layout.Layout{
		Name:   "funnel",
		Bounds: geom.R(0, 0, 200, 100),
		Cells: []layout.Cell{
			{Name: "lower", Box: geom.R(90, 0, 100, 48)},
			{Name: "upper", Box: geom.R(90, 52, 100, 100)},
		},
	}
	for i := 0; i < nNets; i++ {
		y := geom.Coord(30 + 5*i)
		l.Nets = append(l.Nets, layout.Net{
			Name: fmt.Sprintf("n%d", i),
			Terminals: []layout.Terminal{
				{Name: "w", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(10, y), Cell: layout.NoCell}}},
				{Name: "e", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(190, y), Cell: layout.NoCell}}},
			},
		})
	}
	return l
}

// twoPass runs the paper's two-pass flow: the MaxPasses-2, zero-history
// case of Negotiate.
func twoPass(t *testing.T, l *layout.Layout) *NegotiateResult {
	t.Helper()
	res, err := negotiate(t, context.Background(), l, Config{Pitch: 2, Weight: 150, MaxPasses: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoPassReducesOverflow(t *testing.T) {
	l := funnelLayout(6)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Slit is 4 wide; pitch 2 → capacity 3. Six nets must overflow it.
	res := twoPass(t, l)
	if res.Passes[0].Overflow == 0 {
		t.Fatal("first pass should overflow the slit")
	}
	if len(res.Passes) != 2 {
		t.Fatal("second pass should have run")
	}
	first, second := res.Results[0], res.Results[1]
	if len(res.Passes[1].Rerouted) == 0 {
		t.Fatal("affected nets should be rerouted")
	}
	if got, want := res.Passes[1].Overflow, res.Passes[0].Overflow; got >= want {
		t.Fatalf("overflow did not improve: before=%d after=%d", want, got)
	}
	checkPassesMatchRoutes(t, res)
	if len(second.Failed) != 0 {
		t.Fatalf("second pass failures: %v", second.Failed)
	}
	// Rerouted nets are longer (they detour) — congestion relief costs
	// wirelength, as the paper expects.
	if second.TotalLength <= first.TotalLength {
		t.Fatalf("detours should add length: %d vs %d",
			second.TotalLength, first.TotalLength)
	}
}

func TestTwoPassNoCongestionShortCircuits(t *testing.T) {
	res := twoPass(t, funnelLayout(2)) // 2 nets fit the capacity-3 slit
	if len(res.Passes) != 1 || len(res.Results) != 1 {
		t.Fatalf("no second pass expected: %+v", res.Passes)
	}
}

func TestTwoPassSecondPassCarriesStats(t *testing.T) {
	res := twoPass(t, funnelLayout(6))
	if len(res.Results) != 2 {
		t.Fatal("second pass should have run")
	}
	// The second pass splices rerouted nets into the first-pass result; its
	// aggregates must cover the whole layout, not be dropped at zero.
	first, second := res.Results[0], res.Results[1]
	if second.Stats.Expanded < first.Stats.Expanded {
		t.Errorf("second pass stats went backwards: %d < %d",
			second.Stats.Expanded, first.Stats.Expanded)
	}
	if second.Elapsed <= 0 {
		t.Errorf("second pass elapsed = %v, want > 0", second.Elapsed)
	}
}

// tightFunnel engineers a layout the negotiated engine needs at least three
// passes to solve: a sub-pitch (capacity-0) slit threaded by three nets
// whose detour costs (88, 92, 96 length units around the bottom edge) all
// exceed the pass-2 penalty of 2*weight but straddle the pass-3 penalty of
// 3*weight, so overflow only clears once history has accrued for two
// passes.
func tightFunnel() *layout.Layout {
	l := &layout.Layout{
		Name:   "tight-funnel",
		Bounds: geom.R(0, 0, 200, 100),
		Cells: []layout.Cell{
			{Name: "lower", Box: geom.R(90, 0, 100, 48)},
			{Name: "upper", Box: geom.R(90, 52, 100, 100)},
		},
	}
	for i, y := range []geom.Coord{44, 46, 48} {
		l.Nets = append(l.Nets, layout.Net{
			Name: fmt.Sprintf("n%d", i),
			Terminals: []layout.Terminal{
				{Name: "w", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(10, y), Cell: layout.NoCell}}},
				{Name: "e", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(190, y), Cell: layout.NoCell}}},
			},
		})
	}
	return l
}

func TestNegotiateNoOverflowReturnsAfterFirstPass(t *testing.T) {
	l := funnelLayout(2) // 2 nets fit the capacity-3 slit
	res, err := negotiate(t, context.Background(), l, Config{Pitch: 2, Weight: 150, MaxPasses: 5, Workers: 1, HistoryGain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("no-overflow layout should converge")
	}
	if len(res.Passes) != 1 {
		t.Fatalf("passes = %d, want 1", len(res.Passes))
	}
	if res.Passes[0].Overflow != 0 || len(res.Passes[0].Rerouted) != 0 {
		t.Errorf("pass 1 = %+v, want zero overflow and no reroutes", res.Passes[0])
	}
}

func TestNegotiateNeedsThreePasses(t *testing.T) {
	l := tightFunnel()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Slit is 4 wide; pitch 5 makes it sub-pitch — capacity 0 — so three
	// nets overflow it by 3 and every one must eventually detour.
	res, err := negotiate(t, context.Background(), l, Config{Pitch: 5, Weight: 30, MaxPasses: 6, Workers: 1, HistoryGain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("engine should reach zero overflow; passes: %+v", res.Passes)
	}
	if got := len(res.Passes); got < 3 {
		t.Fatalf("converged in %d passes, the workload is engineered to need >= 3", got)
	}
	if res.Map.TotalOverflow() != 0 {
		t.Fatalf("final overflow = %d, want 0", res.Map.TotalOverflow())
	}
	// Pass 2's penalty (2*weight = 60) is below every detour cost, so it
	// must leave overflow untouched; only accrued history clears it.
	if res.Passes[1].Overflow != res.Passes[0].Overflow {
		t.Errorf("pass 2 overflow = %d, want unchanged %d",
			res.Passes[1].Overflow, res.Passes[0].Overflow)
	}
	if last := res.Passes[len(res.Passes)-1]; last.TotalLength <= res.Passes[0].TotalLength {
		t.Errorf("relieving congestion should cost wirelength: %d vs %d",
			last.TotalLength, res.Passes[0].TotalLength)
	}
}

func TestNegotiateStallsWithoutHistory(t *testing.T) {
	// Weight 1 never justifies any detour and HistoryGain 0 means the
	// penalties can never grow: the loop must detect the fixed point
	// instead of burning MaxPasses identical reroutes.
	res, err := negotiate(t, context.Background(), funnelLayout(6), Config{Pitch: 2, Weight: 1, MaxPasses: 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("weight 1 cannot relieve the funnel")
	}
	if !res.Stalled {
		t.Error("loop should report the fixed point as Stalled")
	}
	if len(res.Passes) >= 10 {
		t.Errorf("stalled loop ran %d passes, should stop early", len(res.Passes))
	}
	// The slit stayed over capacity through every pass, and History counts
	// passes ended over capacity — including the final one.
	m := res.Map
	for pi := range m.Passages {
		if m.Passages[pi].Between == [2]int{0, 1} || m.Passages[pi].Between == [2]int{1, 0} {
			if res.History[pi] != len(res.Passes) {
				t.Errorf("slit history = %d, want %d", res.History[pi], len(res.Passes))
			}
		}
	}
}

func TestNegotiateDeterministicAcrossWorkers(t *testing.T) {
	for _, build := range []func() *layout.Layout{func() *layout.Layout { return funnelLayout(8) }, tightFunnel} {
		l := build()
		cfg := Config{Pitch: 2, Weight: 40, MaxPasses: 6, HistoryGain: 1}
		cfg.Workers = 1
		seq, err := negotiate(t, context.Background(), l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 4
		par, err := negotiate(t, context.Background(), l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Passes) != len(par.Passes) {
			t.Fatalf("%s: pass count differs: %d vs %d", l.Name, len(seq.Passes), len(par.Passes))
		}
		for i := range seq.Passes {
			s, p := seq.Passes[i], par.Passes[i]
			if s.Overflow != p.Overflow || s.TotalLength != p.TotalLength ||
				len(s.Rerouted) != len(p.Rerouted) {
				t.Fatalf("%s: pass %d differs: %+v vs %+v", l.Name, i+1, s, p)
			}
		}
		sf, pf := seq.Final(), par.Final()
		for ni := range sf.Nets {
			if !sameRoute(&sf.Nets[ni], &pf.Nets[ni]) {
				t.Fatalf("%s: net %d routed differently with 4 workers", l.Name, ni)
			}
		}
	}
}

func TestSectionIndexMatchesNaiveScan(t *testing.T) {
	ix := mustPlane(t, geom.R(0, 0, 300, 300),
		geom.R(20, 20, 80, 120), geom.R(120, 40, 200, 100),
		geom.R(60, 160, 180, 240), geom.R(220, 140, 280, 260))
	ps, err := Extract(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	idx := newSectionIndex(ps)
	probes := []geom.Seg{}
	for c := geom.Coord(0); c <= 300; c += 35 {
		probes = append(probes,
			geom.S(geom.Pt(0, c), geom.Pt(300, c)),    // full-width horizontal
			geom.S(geom.Pt(c, 0), geom.Pt(c, 300)),    // full-height vertical
			geom.S(geom.Pt(c, c), geom.Pt(c, c+40)),   // short vertical
			geom.S(geom.Pt(c, 90), geom.Pt(c+50, 90)), // short horizontal
		)
	}
	probes = append(probes, geom.S(geom.Pt(110, 110), geom.Pt(110, 110))) // degenerate
	for _, travel := range probes {
		naive := map[int]bool{}
		for pi, p := range ps {
			if travel.Intersects(p.CrossSection()) {
				naive[pi] = true
			}
		}
		got := map[int]bool{}
		idx.visit(travel, func(pi int) {
			if got[pi] {
				t.Fatalf("probe %v: passage %d visited twice", travel, pi)
			}
			got[pi] = true
		})
		if len(got) != len(naive) {
			t.Fatalf("probe %v: index found %d sections, naive %d", travel, len(got), len(naive))
		}
		for pi := range naive {
			if !got[pi] {
				t.Fatalf("probe %v: index missed passage %d", travel, pi)
			}
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	ix := mustPlane(t, geom.R(0, 0, 300, 300),
		geom.R(20, 20, 80, 120), geom.R(120, 40, 200, 100), geom.R(60, 160, 180, 240))
	a, err := Extract(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("passage %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCrossSectionOrientation(t *testing.T) {
	v := Passage{Rect: geom.R(10, 0, 20, 100), Vertical: true}
	if xs := v.CrossSection(); !xs.Horizontal() {
		t.Error("vertical passage needs a horizontal cross-section")
	}
	h := Passage{Rect: geom.R(0, 10, 100, 20), Vertical: false}
	if xs := h.CrossSection(); !xs.Vertical() {
		t.Error("horizontal passage needs a vertical cross-section")
	}
}
