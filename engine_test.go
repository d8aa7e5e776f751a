package genroute

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/plane"
	"repro/internal/search"
)

// funnelLayout is gen.Funnel, the standard congestion fixture, with its
// nets named by netName: the golden journals and pinned digests carry
// those names.
func funnelLayout(nNets int) *Layout {
	l := gen.Funnel(nNets)
	for i := range l.Nets {
		l.Nets[i].Name = netName(i)
	}
	return l
}

// checkEngineConsistency asserts the session invariant: the installed
// layout passes whole-layout Validate (what Edit.Commit's footprint check
// relies on), the live map equals a fresh build over the session's routes,
// every found route is legal and connected, and the index, spans and
// passages are what a fresh build over the layout derives.
func checkEngineConsistency(t *testing.T, e *Engine) {
	t.Helper()
	st := e.st.Load()
	if err := st.l.Validate(); err != nil {
		t.Fatalf("installed layout fails Validate: %v", err)
	}
	if st.cur == nil {
		t.Fatal("engine holds no routed state")
	}
	if len(st.cur.Nets) != len(st.l.Nets) {
		t.Fatalf("state has %d nets, layout %d", len(st.cur.Nets), len(st.l.Nets))
	}
	fresh := congest.BuildMap(st.passages, st.cur.NetSegments())
	for pi := range st.m.Usage {
		if st.m.Usage[pi] != fresh.Usage[pi] {
			t.Fatalf("passage %d: live usage %d, routes imply %d", pi, st.m.Usage[pi], fresh.Usage[pi])
		}
	}
	for i := range st.cur.Nets {
		nr := &st.cur.Nets[i]
		if nr.Net != st.l.Nets[i].Name {
			t.Fatalf("state slot %d is %q, layout net is %q", i, nr.Net, st.l.Nets[i].Name)
		}
		if nr.Found {
			if err := st.r.Validate(nr); err != nil {
				t.Fatalf("illegal route: %v", err)
			}
		}
	}
	// The installed index is the layout's own, id for id, whether it was
	// built, edited, replayed or restored (a cell move replaces its
	// obstacles in place), and so are the spans and the passages, walls
	// included.
	ix, spans, err := plane.FromLayoutSpans(st.l)
	if err != nil {
		t.Fatal(err)
	}
	if st.ix.NumCells() != ix.NumCells() {
		t.Fatalf("installed index has %d obstacles, the layout's %d", st.ix.NumCells(), ix.NumCells())
	}
	for id := 0; id < ix.NumCells(); id++ {
		if got, want := st.ix.Cell(id), ix.Cell(id); got != want {
			t.Fatalf("installed obstacle %d is %v, the layout's index has %v", id, got, want)
		}
	}
	if !slices.Equal(st.spans, spans) {
		t.Fatalf("session spans %v, the layout's %v", st.spans, spans)
	}
	want, err := congest.Extract(ix, e.cfg.congest.Pitch)
	if err != nil {
		t.Fatal(err)
	}
	checkPassages(t, "installed", st.passages, want)
}

// checkPassages asserts two passage lists are equal element for element.
func checkPassages(t *testing.T, what string, got, want []congest.Passage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d passages, want %d", what, len(got), len(want))
	}
	for pi := range got {
		if got[pi] != want[pi] {
			t.Fatalf("%s: passage %d is %+v, want %+v", what, pi, got[pi], want[pi])
		}
	}
}

// withWriter runs f holding e's writer token: the one way a test reads what
// only a writer touches (the negotiation in flight, the journal, the
// fingerprint memo).
func withWriter(t testing.TB, e *Engine, f func(w *writer)) {
	t.Helper()
	w, err := e.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.w <- w }()
	f(w)
}

// fingerprint is e's memoized layout fingerprint, read through withWriter.
func fingerprint(t testing.TB, e *Engine) (h uint64) {
	t.Helper()
	withWriter(t, e, func(w *writer) { h = e.layoutHash(w) })
	return h
}

func TestEngineRouteAll(t *testing.T) {
	l := demoLayout()
	e, err := NewEngine(l)
	if err != nil {
		t.Fatal(err)
	}
	if e.Routed() {
		t.Fatal("fresh engine claims a routed state")
	}
	res, err := e.RouteAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v", res.Failed)
	}
	if !e.Routed() || e.Result() != res {
		t.Fatal("session state not installed")
	}
	if err := e.CheckConnectivity(); err != nil {
		t.Fatal(err)
	}
	checkEngineConsistency(t, e)
	// The engine owns a clone: mutating the caller's layout afterwards
	// must not affect the session.
	l.Nets[0].Name = "mutated"
	if _, err := e.RouteNet(context.Background(), "bus"); err != nil {
		t.Fatalf("engine layout aliased caller state: %v", err)
	}
}

func TestEngineRouteNegotiatedWithProgress(t *testing.T) {
	var events []Progress
	e, err := NewEngine(funnelLayout(10),
		WithPitch(2), WithPenaltyWeight(150), WithWorkers(1),
		WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) < 2 {
		t.Fatalf("funnel should need reroute passes, got %d", len(res.Passes))
	}
	if len(events) != len(res.Passes) {
		t.Fatalf("observer saw %d events, result has %d passes", len(events), len(res.Passes))
	}
	for i, ev := range events {
		if ev.Phase != "negotiate" || ev.Pass != i+1 {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.NetsTotal != 10 || ev.NetsRouted != 10 {
			t.Fatalf("event %d counts: %+v", i, ev)
		}
		if ev.Overflow != res.Passes[i].Overflow {
			t.Fatalf("event %d overflow %d, pass says %d", i, ev.Overflow, res.Passes[i].Overflow)
		}
	}
	if e.Overflow() != res.Map.TotalOverflow() {
		t.Fatalf("session overflow %d, final map %d", e.Overflow(), res.Map.TotalOverflow())
	}
	checkEngineConsistency(t, e)
}

// TestEngineNegotiatedHonorsBaseOptions pins the unified-options contract:
// the negotiation's penalty-free first pass must route with the session's
// base options (corner rule included), byte-identical to RouteAll under
// the same options.
func TestEngineNegotiatedHonorsBaseOptions(t *testing.T) {
	l := demoLayout()
	ea, err := NewEngine(l, WithCornerRule())
	if err != nil {
		t.Fatal(err)
	}
	all, err := ea.RouteAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(l, WithCornerRule())
	if err != nil {
		t.Fatal(err)
	}
	neg, err := en.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := neg.Results[0]
	for i := range all.Nets {
		a, b := all.Nets[i].SortedSegments(), first.Nets[i].SortedSegments()
		if len(a) != len(b) {
			t.Fatalf("net %q: negotiation pass 1 ignored the base options", all.Nets[i].Net)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("net %q: negotiation pass 1 ignored the base options", all.Nets[i].Net)
			}
		}
	}
	// The trace hooks must fire through the congestion flow too.
	var expanded int
	et, err := NewEngine(funnelLayout(6), WithPitch(2), WithPenaltyWeight(150), WithWorkers(1),
		WithTrace(func(Point, int64) { expanded++ }, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := et.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	if expanded == 0 {
		t.Fatal("trace hook silent through RouteNegotiated")
	}
}

func TestEngineTracksAndLayers(t *testing.T) {
	e, err := NewEngine(demoLayout())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AssignTracks(0); err == nil {
		t.Fatal("AssignTracks before routing must error")
	}
	if _, err := e.AssignLayers(); err == nil {
		t.Fatal("AssignLayers before routing must error")
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr, err := e.AssignTracks(0)
	if err != nil || tr.Wires == 0 {
		t.Fatalf("tracks: %v (%+v)", err, tr)
	}
	la, err := e.AssignLayers()
	if err != nil || la == nil {
		t.Fatalf("layers: %v", err)
	}
}

func TestEngineAdjustPlacement(t *testing.T) {
	e, err := NewEngine(funnelLayout(10), WithPitch(2), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AdjustPlacement(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("feedback loop should converge: %+v", res.Iterations)
	}
	if res.Layout.Bounds == e.Layout().Bounds {
		t.Fatal("die should have grown")
	}
}

func TestEngineRoutePointsAndNet(t *testing.T) {
	e, err := NewEngine(demoLayout())
	if err != nil {
		t.Fatal(err)
	}
	route, err := e.RoutePoints(context.Background(), Pt(0, 0), Pt(300, 300))
	if err != nil || !route.Found {
		t.Fatalf("corner-to-corner: %v", err)
	}
	nr, err := e.RouteNet(context.Background(), "clk")
	if err != nil || !nr.Found {
		t.Fatalf("clk: %v", err)
	}
	if _, err := e.RouteNet(context.Background(), "nope"); err == nil {
		t.Fatal("unknown net must error")
	}
}

func TestEngineCancelRouteAll(t *testing.T) {
	e, err := NewEngine(funnelLayout(10), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RouteAll(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Nets) != 10 {
		t.Fatal("partial result missing")
	}
	for i := range res.Nets {
		if res.Nets[i].Found {
			t.Fatal("net routed under a pre-cancelled context")
		}
	}
	checkEngineConsistency(t, e) // partial state is still consistent
}

func TestEngineCancelMidNegotiation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := NewEngine(funnelLayout(10),
		WithPitch(2), WithPenaltyWeight(150), WithWorkers(1),
		WithProgress(func(p Progress) {
			if p.Pass == 2 {
				cancel() // stop after the first reroute pass is recorded
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteNegotiated(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Passes) < 2 {
		t.Fatalf("want the recorded prefix, got %d passes", len(res.Passes))
	}
	// The cancelled session keeps a consistent partial state that a
	// fresh negotiation can pick up from scratch.
	checkEngineConsistency(t, e)
}

func TestEngineCancelNoGoroutineLeak(t *testing.T) {
	e, err := NewEngine(funnelLayout(10), WithPitch(2), WithPenaltyWeight(150), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _ = e.RouteNegotiated(ctx)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 || time.Now().After(deadline) {
			if n > before+2 {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEngineUnifiedOptionsApply(t *testing.T) {
	for _, opts := range [][]Option{
		{WithCornerRule()},
		{WithAllDirs(), WithMaxExpansions(100000)},
		{WithPitch(8), WithPenaltyWeight(50), WithMaxPasses(3)},
		{WithHistory(2, 10), WithWeightStep(40), WithWorkers(1)},
		{WithAdjustIters(3), WithProgress(func(Progress) {})},
	} {
		e, err := NewEngine(demoLayout(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RouteAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Failed) != 0 {
			t.Fatalf("failures with options: %v", res.Failed)
		}
	}
}

func TestEngineTraceOption(t *testing.T) {
	var expanded, generated int
	e, err := NewEngine(demoLayout(), WithTrace(
		func(Point, int64) { expanded++ },
		func(Point, int64) { generated++ },
	), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RoutePoints(context.Background(), Pt(0, 0), Pt(300, 300)); err != nil {
		t.Fatal(err)
	}
	if expanded == 0 || generated == 0 {
		t.Fatalf("trace hooks not called: expanded=%d generated=%d", expanded, generated)
	}
}

// segmentDigest is an FNV-1a digest of every net's segments, in layout
// order: two runs route alike exactly when their digests match.
func segmentDigest(nets []NetRoute) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, nr := range nets {
		h.Write([]byte(nr.Net))
		word(int64(len(nr.Segments)))
		for _, s := range nr.Segments {
			word(s.A.X)
			word(s.A.Y)
			word(s.B.X)
			word(s.B.Y)
		}
	}
	return h.Sum64()
}

// TestRouteAllMacro32Pinned pins a whole-layout route at macro scale: the
// segment digest plus the total search expansions and generated
// successors. Successor generation, visibility and emission order all feed
// these numbers, so an optimisation of the search's hot path that changes
// any route or the order states are explored fails here. Generated also
// holds the successor generator to counting every visible corner, including
// the ones it emits once per corner line.
func TestRouteAllMacro32Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a 32x32 macro grid")
	}
	l, err := MacroGrid(32, 32, 40, 30, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(l, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantDigest    uint64 = 0xae18d4031aec19de
		wantExpanded         = 9671
		wantGenerated        = 109950
	)
	if got := segmentDigest(res.Nets); got != wantDigest || res.Stats.Expanded != wantExpanded || res.Stats.Generated != wantGenerated {
		t.Fatalf("segment digest %#016x, expanded %d, generated %d; want %#016x, %d, %d",
			got, res.Stats.Expanded, res.Stats.Generated, wantDigest, wantExpanded, wantGenerated)
	}
}

// TestNegotiateMacroGrid16Pinned pins a penalty-priced negotiation above
// funnel size: the MacroGrid16 scene and schedule of
// BenchmarkNegotiatedCongestion, at 1 and 4 workers. Every rip-up prices its
// successors through the congestion map, so a change to successor
// generation or pricing that alters a route, a pass's overflow, its rip-up
// order or the search effort fails here.
func TestNegotiateMacroGrid16Pinned(t *testing.T) {
	l, err := MacroGrid(16, 16, 40, 30, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	const wantDigest uint64 = 0xc173dedee3646d60
	wantOverflow := []int{37, 4, 1, 1, 0}
	wantRerouted := [][]string{
		nil,
		{"hb11_1", "hb14_3", "hb15_11", "ctl1", "ctl2", "ctl3", "ctl4", "ctl5", "ctl6", "ctl7",
			"ctl8", "ctl9", "ctl10", "ctl11", "ctl12", "ctl13", "ctl14", "ctl15",
			"x1", "x3", "x4", "x5", "x7", "x8", "x9", "x11", "x12", "x13", "x14", "x2"},
		{"ctl2", "ctl3", "ctl4", "ctl11", "ctl12", "ctl13", "ctl14", "x2", "x4", "x12", "x13"},
		{"ctl3", "ctl4", "x12"},
		{"ctl3", "ctl4", "x12", "ctl2"},
	}
	wantStats := search.Stats{Expanded: 3846, Generated: 419686, Reopened: 0, MaxOpen: 322}
	for _, workers := range []int{1, 4} {
		e, err := NewEngine(l, WithWorkers(workers), WithPitch(8), WithPenaltyWeight(40),
			WithWeightStep(40), WithHistory(1, 10), WithMaxPasses(8))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RouteNegotiated(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := segmentDigest(res.Final().Nets); got != wantDigest {
			t.Errorf("workers=%d: final segment digest %#016x, want %#016x", workers, got, wantDigest)
		}
		if len(res.Passes) != len(wantOverflow) {
			t.Fatalf("workers=%d: %d passes, want %d", workers, len(res.Passes), len(wantOverflow))
		}
		for i, p := range res.Passes {
			if p.Overflow != wantOverflow[i] || !slices.Equal(p.Rerouted, wantRerouted[i]) {
				t.Errorf("workers=%d pass %d: overflow %d rerouted %v; want %d %v",
					workers, i+1, p.Overflow, p.Rerouted, wantOverflow[i], wantRerouted[i])
			}
		}
		if got := res.Passes[len(res.Passes)-1].Stats; got != wantStats {
			t.Errorf("workers=%d: last pass stats %+v, want %+v", workers, got, wantStats)
		}
	}
}

// TestNegotiateTranslationInvariant negotiates one congested scene in three
// placements: as generated, moved to just below MaxInt64 and moved to just
// above MinInt64. Translation changes no distance, so the passes, total
// length and overflow must agree. A passage cross-section taken as
// (Min+Max)/2 overflows in the translated placements and lands outside
// its corridor, where no route is counted.
func TestNegotiateTranslationInvariant(t *testing.T) {
	l, err := MacroGrid(4, 4, 40, 30, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		passes   int
		length   int64
		overflow int
	}
	negotiate := func(l *Layout) outcome {
		t.Helper()
		e, err := NewEngine(l, WithWorkers(1), WithPitch(8), WithPenaltyWeight(40),
			WithWeightStep(40), WithHistory(1, 10), WithMaxPasses(12))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RouteNegotiated(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return outcome{len(res.Passes), int64(res.Final().TotalLength), e.Overflow()}
	}
	want := negotiate(l)
	b := l.Bounds
	for _, tc := range []struct {
		name string
		d    Point
	}{
		{"near MaxInt64", Pt(math.MaxInt64-1-b.MaxX, math.MaxInt64-1-b.MaxY)},
		{"near MinInt64", Pt(math.MinInt64+1-b.MinX, math.MinInt64+1-b.MinY)},
	} {
		if got := negotiate(translateLayout(l, tc.d)); got != want {
			t.Errorf("%s: %d passes, length %d, overflow %d; untranslated %d passes, length %d, overflow %d",
				tc.name, got.passes, got.length, got.overflow, want.passes, want.length, want.overflow)
		}
	}
}

// translateLayout returns a copy of l moved by d: bounds, cells and pins.
func translateLayout(l *Layout, d Point) *Layout {
	c := l.Clone()
	c.Bounds = c.Bounds.Translate(d)
	for i := range c.Cells {
		c.Cells[i].Box = c.Cells[i].Box.Translate(d)
		for k := range c.Cells[i].Poly {
			c.Cells[i].Poly[k] = c.Cells[i].Poly[k].Add(d)
		}
	}
	for i := range c.Nets {
		for _, term := range c.Nets[i].Terminals {
			for k := range term.Pins {
				term.Pins[k].Pos = term.Pins[k].Pos.Add(d)
			}
		}
	}
	return c
}
