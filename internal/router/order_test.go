package router

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/search"
	"repro/internal/steiner"
)

// routeNetInOrder is RouteNetCtx as it was before a round searched its
// candidates in lower-bound order: every unconnected terminal is routed in
// terminal order, only a route already found sets a ceiling, and every
// search validates its own endpoints (the target points once per net). It
// is the oracle TestRouteNetMatchesInOrderGreedy and FuzzRouteNetOrder hold
// RouteNetCtx to.
func (r *Router) routeNetInOrder(ctx context.Context, net *layout.Net) (NetRoute, error) {
	validated := false
	routeConnection := func(done <-chan struct{}, sources []geom.Point, targets *targetSet, maxCost search.Cost) (Route, error) {
		if len(sources) == 0 || (len(targets.points) == 0 && len(targets.segs) == 0) {
			return Route{}, fmt.Errorf("router: empty source or target set")
		}
		if err := r.validEndpoints(sources); err != nil {
			return Route{}, err
		}
		if !validated {
			if err := r.validEndpoints(targets.points); err != nil {
				return Route{}, err
			}
			validated = true
		}
		return r.routeConnection(done, sources, targets, maxCost)
	}

	done := ctx.Done()
	out := NetRoute{Net: net.Name}
	if len(net.Terminals) < 2 {
		return out, fmt.Errorf("router: net %q needs at least two terminals", net.Name)
	}
	scratch := &netScratch{}
	startIdx := r.pickStartTerminal(net)
	flat := scratch.pinFlat[:0]
	for i := range net.Terminals {
		for _, p := range net.Terminals[i].Pins {
			flat = append(flat, p.Pos)
		}
	}
	scratch.pinFlat = flat
	pins := scratch.pins[:0]
	rest := flat
	for i := range net.Terminals {
		n := len(net.Terminals[i].Pins)
		pins = append(pins, rest[:n:n])
		rest = rest[n:]
	}
	scratch.pins = pins

	ts := &scratch.ts
	ts.reset()
	ts.addPoints(pins[startIdx]...)
	remaining := scratch.remaining[:0]
	for i := range net.Terminals {
		if i != startIdx {
			remaining = append(remaining, i)
		}
	}
	scratch.remaining = remaining

	for len(remaining) > 0 {
		type cand struct {
			idx   int // position in remaining
			route Route
		}
		best := cand{idx: -1}
		// Route every unconnected terminal to the current set and take the
		// cheapest — the spanning-tree greedy step with true route costs.
		// Once a candidate exists, later searches carry its cost as a
		// ceiling: a terminal that cannot attach strictly cheaper aborts as
		// soon as the search's lower bound crosses the ceiling, so the
		// greedy pick is unchanged while distant candidates cost almost
		// nothing. The ceiling is exact only for admissible searches, so
		// the weighted-A* ablation keeps full searches.
		for i, ti := range remaining {
			var bound search.Cost
			if best.idx >= 0 && r.opts.WeightNum == 0 && best.route.Cost > 1 {
				bound = best.route.Cost - 1
			}
			route, err := routeConnection(done, pins[ti], ts, bound)
			if errors.Is(err, search.ErrCancelled) {
				return out, ctxError(ctx, err) // cancelled: partial tree, no wrapping
			}
			if err != nil {
				return out, fmt.Errorf("net %q terminal %q: %w", net.Name, net.Terminals[ti].Name, err)
			}
			out.Stats.Expanded += route.Stats.Expanded
			out.Stats.Generated += route.Stats.Generated
			out.Stats.Reopened += route.Stats.Reopened
			if route.Stats.MaxOpen > out.Stats.MaxOpen {
				out.Stats.MaxOpen = route.Stats.MaxOpen
			}
			if !route.Found {
				continue
			}
			if best.idx < 0 || route.Cost < best.route.Cost {
				best = cand{idx: i, route: route}
			}
		}
		if best.idx < 0 {
			out.FailedTerminal = net.Terminals[remaining[0]].Name
			return out, nil
		}
		ti := remaining[best.idx]
		remaining = append(remaining[:best.idx], remaining[best.idx+1:]...)
		// Fold the new path and the terminal's pins into the connected set.
		out.Paths = append(out.Paths, best.route.Points)
		out.Length += best.route.Length
		for i := 1; i < len(best.route.Points); i++ {
			seg := geom.S(best.route.Points[i-1], best.route.Points[i])
			out.Segments = append(out.Segments, seg)
			ts.addSegs(seg)
		}
		ts.addPoints(pins[ti]...)
	}
	out.Found = true
	return out, nil
}

// orderVariant is one router configuration the oracle comparison runs.
type orderVariant struct {
	name string
	opts Options
}

// orderVariants are the configurations RouteNetCtx must agree with the
// in-order loop under: both cost-model extensions, an inadmissible weight,
// best-first (which takes the ceiling) and breadth-first (which ignores
// it), expansion budgets small enough that candidates fail, and a penalty
// that makes ties of unequal length.
func orderVariants(ix *plane.Index) []orderVariant {
	return []orderVariant{
		{"default", Options{}},
		{"corner", Options{Cost: CornerCost{Ix: ix}}},
		{"weight3/2", Options{WeightNum: 3, WeightDen: 2}},
		{"best-first", Options{Strategy: search.BestFirst}},
		{"breadth-first", Options{Strategy: search.BreadthFirst}},
		{"budget3", Options{MaxExpansions: 3}},
		{"budget20", Options{MaxExpansions: 20}},
		{"penalty", Options{Cost: PenaltyCost{Penalty: stripePenalty}}},
	}
}

// stripePenalty charges a ray that starts in every other 64-unit vertical
// stripe a flat Scale/2 and then 16 Scale at every 64 units of its length,
// a quarter Scale per unit on average: non-negative, so Scale times the
// distance still bounds every route, but wire lengths and costs no longer
// rank together.
func stripePenalty(dst []Toll, from geom.Point, d geom.Dir, stop geom.Coord) []Toll {
	if (from.X/64)%2 == 0 {
		return dst
	}
	length := stop - from.X
	if !d.Horizontal() {
		length = stop - from.Y
	}
	dst = append(dst, Toll{At: 0, Cost: Scale / 2})
	for at := geom.Coord(64); at <= max(length, -length); at += 64 {
		dst = append(dst, Toll{At: at, Cost: 16 * Scale})
	}
	return dst
}

// orderStats tallies what an oracle comparison covered.
type orderStats struct {
	routes, errs, bounded int
}

// checkNetOrder routes one net with RouteNetCtx and with the in-order loop
// and requires the same NetRoute in every field but Stats and the same
// error text. A found tree whose terminals each have one pin must be at
// least the rectilinear Steiner lower bound of the pins, a bound computed
// without the router.
func checkNetOrder(t testing.TB, label string, r *Router, ctx context.Context, net *layout.Net, st *orderStats) {
	t.Helper()
	got, gotErr := r.RouteNetCtx(ctx, net)
	want, wantErr := r.routeNetInOrder(ctx, net)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s net %q: error %v, in-order loop %v", label, net.Name, gotErr, wantErr)
	}
	if gotErr != nil {
		st.errs++
	}
	got.Stats, want.Stats = search.Stats{}, search.Stats{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s net %q:\n got %+v\nwant %+v", label, net.Name, got, want)
	}
	st.routes++
	if !got.Found {
		return
	}
	pts := make([]geom.Point, 0, len(net.Terminals))
	for _, term := range net.Terminals {
		if len(term.Pins) != 1 {
			return
		}
		pts = append(pts, term.Pins[0].Pos)
	}
	if lb := steiner.RSMTLowerBound(pts); got.Length < lb {
		t.Fatalf("%s net %q: tree length %d below the Steiner lower bound %d of its pins", label, net.Name, got.Length, lb)
	}
	st.bounded++
}

// checkLayoutOrder runs checkNetOrder over every net of l under every
// variant, and once more under a context cancelled before the call.
func checkLayoutOrder(t testing.TB, label string, l *layout.Layout, st *orderStats) {
	t.Helper()
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range orderVariants(ix) {
		r := New(ix, v.opts)
		for i := range l.Nets {
			checkNetOrder(t, label+"/"+v.name, r, context.Background(), &l.Nets[i], st)
		}
	}
	r := New(ix, Options{})
	for i := range l.Nets {
		checkNetOrder(t, label+"/cancelled", r, cancelled, &l.Nets[i], st)
	}
}

// withBadPin returns a copy of net whose terminal k has its last pin moved
// to p.
func withBadPin(net *layout.Net, k int, p geom.Point) *layout.Net {
	bad := *net
	bad.Terminals = append([]layout.Terminal(nil), net.Terminals...)
	term := &bad.Terminals[k]
	term.Pins = append([]layout.Pin(nil), term.Pins...)
	term.Pins[len(term.Pins)-1].Pos = p
	return &bad
}

// checkBadPins plants a pin strictly inside a cell, and one outside the
// routing bounds, at each terminal position of the layout's multi-terminal
// nets, and compares the two loops' errors with and without a context
// cancelled before the call: the first error must name the same terminal,
// and a cancellation must win over exactly the same validation errors.
func checkBadPins(t testing.TB, label string, l *layout.Layout, nets int, st *orderStats) {
	t.Helper()
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	r := New(ix, Options{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	box := l.Cells[0].Box
	planted := []geom.Point{
		geom.Pt((box.MinX+box.MaxX)/2, (box.MinY+box.MaxY)/2),
		geom.Pt(l.Bounds.MaxX+5, l.Bounds.MinY),
	}
	for i := range l.Nets {
		net := &l.Nets[i]
		if len(net.Terminals) < 3 {
			continue
		}
		if nets--; nets < 0 {
			break
		}
		for k := range net.Terminals {
			for _, p := range planted {
				bad := withBadPin(net, k, p)
				checkNetOrder(t, label+"/bad-pin", r, context.Background(), bad, st)
				checkNetOrder(t, label+"/bad-pin-cancelled", r, cancelled, bad, st)
			}
		}
	}
}

// orderScene configures a random layout of ten cells with multi-pin
// terminals and pads. Even seeds pack the cells into a 300-unit square,
// where equal-cost routes from different terminals, the ties the loops
// must break alike, are several times more common than on the default
// 1000-unit chip.
func orderScene(seed int64, nets, maxTerminals int) gen.Config {
	cfg := gen.Config{
		Seed: seed, Cells: 10, Nets: nets, MaxTerminals: maxTerminals, MultiPinProb: 30, PadProb: 15,
	}
	if seed%2 == 0 {
		cfg.Width, cfg.Height, cfg.MinCell, cfg.MaxCell = 300, 300, 20, 60
	}
	return cfg
}

// TestRouteNetTieGoesToEarlierTerminal pins the tie rule on a scene built
// to need it. From the start terminal S, terminal A (earlier) runs 30
// straight up; terminal B (later) is 20 away in a straight line, but a cell
// makes its route 30 long too. B's lower bound is smaller, so B is
// searched first and sets the ceiling. A's bound equals that ceiling, and
// A is earlier, so it must still be searched, with the ceiling itself
// rather than one less, and its equal-cost route must win the round.
func TestRouteNetTieGoesToEarlierTerminal(t *testing.T) {
	ix, err := plane.New(geom.R(0, 0, 100, 100), []geom.Rect{geom.R(55, 0, 65, 15)})
	if err != nil {
		t.Fatal(err)
	}
	pin := func(name string, p geom.Point) layout.Terminal {
		return layout.Terminal{Name: name, Pins: []layout.Pin{{Name: "p", Pos: p, Cell: layout.NoCell}}}
	}
	net := &layout.Net{Name: "tie", Terminals: []layout.Terminal{
		pin("S", geom.Pt(50, 10)), pin("A", geom.Pt(50, 40)), pin("B", geom.Pt(70, 10)),
	}}
	r := New(ix, Options{})
	nr, err := r.RouteNet(net)
	if err != nil {
		t.Fatal(err)
	}
	if !nr.Found || len(nr.Paths) != 2 || nr.Paths[0][0] != geom.Pt(50, 40) || geom.PathLength(nr.Paths[0]) != 30 {
		t.Fatalf("tree %+v: want A connected first, by a route 30 long", nr)
	}
	checkNetOrder(t, "tie", r, context.Background(), net, &orderStats{})
}

// TestRouteNetMatchesInOrderGreedy holds RouteNetCtx's nearest-first
// rounds to the in-order loop they replaced, which routes every candidate:
// the same tree, failed terminal and error on every net of random layouts
// with multi-pin terminals, polygon cells, a pad ring and two macro grids,
// under every cost model, strategy, weight and budget the router offers.
func TestRouteNetMatchesInOrderGreedy(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	var st orderStats
	for seed := int64(1); seed <= int64(seeds); seed++ {
		l, err := gen.RandomLayout(orderScene(seed, 12, 8))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("random-%d", seed)
		checkLayoutOrder(t, label, l, &st)
		if seed <= 6 {
			checkBadPins(t, label, l, 1, &st)
		}
	}
	poly, err := gen.PolyChip(5, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	checkLayoutOrder(t, "polychip", poly, &st)
	pads, err := gen.PadRing(16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkLayoutOrder(t, "padring", pads, &st)
	for _, n := range []int{8, 16} {
		if n == 16 && testing.Short() {
			continue
		}
		l, err := gen.MacroGrid(n, n, 40, 30, 12, 9)
		if err != nil {
			t.Fatal(err)
		}
		checkLayoutOrder(t, fmt.Sprintf("macro%d", n), l, &st)
	}
	t.Logf("%d routes matched (%d errors), %d trees at or above the Steiner bound", st.routes, st.errs, st.bounded)
	if st.errs == 0 || st.bounded == 0 {
		t.Fatalf("coverage: %d errors, %d bounded trees; want both", st.errs, st.bounded)
	}
}

// FuzzRouteNetOrder explores the same comparison from arbitrary scenes:
// the seed draws a random layout, terminals bounds its nets' terminal
// count, and variant picks the router configuration; its high bits cancel
// the context before the call (bit 0) and plant a pin inside a cell
// (bit 1).
func FuzzRouteNetOrder(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42} {
		for v := 0; v < 32; v += 5 {
			f.Add(seed, uint8(6), uint8(v))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, terminals, variant uint8) {
		l, err := gen.RandomLayout(orderScene(seed, 6, 2+int(terminals%9)))
		if err != nil {
			t.Skip(err)
		}
		ix, err := plane.FromLayout(l)
		if err != nil {
			t.Fatal(err)
		}
		variants := orderVariants(ix)
		v := variants[int(variant)%len(variants)]
		mode := int(variant) / len(variants)
		r := New(ix, v.opts)
		ctx := context.Background()
		if mode&1 != 0 {
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			ctx = cancelled
		}
		box := l.Cells[0].Box
		inside := geom.Pt((box.MinX+box.MaxX)/2, (box.MinY+box.MaxY)/2)
		var st orderStats
		for i := range l.Nets {
			net := &l.Nets[i]
			if mode&2 != 0 {
				net = withBadPin(net, int(seed&0xff)%len(net.Terminals), inside)
			}
			checkNetOrder(t, v.name, r, ctx, net, &st)
		}
	})
}
