package congest

import (
	"context"
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
)

// checkMapMatchesRoutes asserts that a congestion map's usage equals a
// fresh BuildMap over the given routing state — the consistency invariant
// every exit path (including cancellation) must preserve.
func checkMapMatchesRoutes(t *testing.T, m *Map, lr *router.LayoutResult) {
	t.Helper()
	fresh := BuildMap(m.Passages, lr.NetSegments())
	for pi := range m.Usage {
		if m.Usage[pi] != fresh.Usage[pi] {
			t.Fatalf("passage %d: recorded usage %d, routes imply %d", pi, m.Usage[pi], fresh.Usage[pi])
		}
	}
}

// checkPassesMatchRoutes asserts a result's alignment and consistency: one
// Results entry per pass, each pass's Overflow what BuildMap counts over
// that pass's routes, and the live map equal to the last pass's routes.
func checkPassesMatchRoutes(t *testing.T, res *NegotiateResult) {
	t.Helper()
	if len(res.Results) != len(res.Passes) {
		t.Fatalf("misaligned result: %d passes, %d results", len(res.Passes), len(res.Results))
	}
	for i, lr := range res.Results {
		if got := BuildMap(res.Map.Passages, lr.NetSegments()).TotalOverflow(); got != res.Passes[i].Overflow {
			t.Fatalf("pass %d: recorded overflow %d, routes imply %d", i+1, res.Passes[i].Overflow, got)
		}
	}
	checkMapMatchesRoutes(t, res.Map, res.Final())
}

// negotiate runs Negotiate over an index and passage set prepared from l.
func negotiate(t testing.TB, ctx context.Context, l *layout.Layout, cfg Config) (*NegotiateResult, error) {
	t.Helper()
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	passages, err := Extract(ix, cfg.Pitch)
	if err != nil {
		t.Fatal(err)
	}
	return Negotiate(ctx, l, ix, passages, cfg)
}

func TestNegotiateCtxPreCancelled(t *testing.T) {
	l := funnelLayout(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := negotiate(t, ctx, l, Config{Pitch: 2, Weight: 150, MaxPasses: 4, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Passes) == 0 {
		t.Fatal("cancelled run must still report the partial first pass")
	}
	checkMapMatchesRoutes(t, res.Map, res.Final())
}

func TestNegotiateCtxCancelAfterFirstPass(t *testing.T) {
	l := funnelLayout(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{Pitch: 2, Weight: 150, MaxPasses: 8, HistoryGain: 1, Workers: 1}
	cfg.OnPass = func(n int, p Pass) {
		if n == 1 {
			cancel() // stop before (or inside) the first reroute pass
		}
	}
	res, err := negotiate(t, ctx, l, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Passes) < 1 {
		t.Fatalf("want at least the first pass, got %d", len(res.Passes))
	}
	// Alignment and consistency of everything that was recorded.
	checkPassesMatchRoutes(t, res)
	// The uncancelled run must agree with the recorded prefix on pass 1
	// (the cancel fired after it was recorded).
	full, err := negotiate(t, context.Background(), l, Config{Pitch: 2, Weight: 150, MaxPasses: 8, HistoryGain: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Passes[0].Overflow != res.Passes[0].Overflow {
		t.Fatalf("pass 1 overflow diverged: %d vs %d", res.Passes[0].Overflow, full.Passes[0].Overflow)
	}
}

func TestNegotiateOnPassObserver(t *testing.T) {
	l := funnelLayout(6)
	var seen []int
	cfg := Config{Pitch: 2, Weight: 150, MaxPasses: 8, HistoryGain: 1, Workers: 1}
	cfg.OnPass = func(n int, p Pass) {
		seen = append(seen, n)
		if p.Routed != len(l.Nets) {
			t.Fatalf("pass %d: Routed = %d, want %d", n, p.Routed, len(l.Nets))
		}
	}
	res, err := negotiate(t, context.Background(), l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Passes) {
		t.Fatalf("observer saw %d passes, result has %d", len(seen), len(res.Passes))
	}
	for i, n := range seen {
		if n != i+1 {
			t.Fatalf("observer pass numbers %v not sequential", seen)
		}
	}
}

// repairScene routes the funnel and returns everything RepairCtx needs.
func repairScene(t *testing.T, nNets int, pitch geom.Coord) (*layout.Layout, *plane.Index, []Passage, *Map, *router.LayoutResult) {
	t.Helper()
	l := funnelLayout(nNets)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	passages, err := Extract(ix, pitch)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := router.New(ix, router.Options{}).RouteLayout(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l, ix, passages, BuildMap(passages, lr.NetSegments()), lr
}

func TestRepairReroutesOnlyDirty(t *testing.T) {
	// 2 nets through a capacity-3 slit: no overflow, so repairing net 0
	// must touch nothing else.
	l, ix, passages, m, lr := repairScene(t, 2, 2)
	before1 := append([]geom.Seg(nil), lr.Nets[1].Segments...)
	res, err := RepairCtx(context.Background(), l, ix, passages, m, lr, []int{0}, Config{Pitch: 2, Weight: 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("repair of an uncongested layout must converge")
	}
	if len(res.Passes) != 1 {
		t.Fatalf("want exactly one repair pass, got %d", len(res.Passes))
	}
	if got := res.Passes[0].Rerouted; len(got) != 1 || got[0] != l.Nets[0].Name {
		t.Fatalf("rerouted %v, want exactly net 0", got)
	}
	for i, s := range res.Final().Nets[1].Segments {
		if s != before1[i] {
			t.Fatal("untouched net's route changed")
		}
	}
	checkMapMatchesRoutes(t, m, res.Final())
}

func TestRepairDrainsOverflowFromDirtySeed(t *testing.T) {
	// 6 nets overflow the capacity-3 slit. Seed the repair with just one
	// dirty net: the worklist must still pull in the overflow victims and
	// drain the slit like Negotiate would.
	l, ix, passages, m, lr := repairScene(t, 6, 2)
	if m.TotalOverflow() == 0 {
		t.Fatal("scene should start overflowed")
	}
	res, err := RepairCtx(context.Background(), l, ix, passages, m, lr, []int{0},
		Config{Pitch: 2, Weight: 150, MaxPasses: 8, HistoryGain: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("repair should drain the slit; overflow %d after %d passes",
			res.Map.TotalOverflow(), len(res.Passes))
	}
	checkMapMatchesRoutes(t, m, res.Final())
}

func TestRepairNothingToDo(t *testing.T) {
	l, ix, passages, m, lr := repairScene(t, 2, 2)
	res, err := RepairCtx(context.Background(), l, ix, passages, m, lr, nil, Config{Pitch: 2, Weight: 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) != 0 || !res.Converged {
		t.Fatalf("empty repair over a clean layout: %d passes, converged %v", len(res.Passes), res.Converged)
	}
}

func TestRepairCancelledRestoresConsistency(t *testing.T) {
	l, ix, passages, m, lr := repairScene(t, 6, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RepairCtx(ctx, l, ix, passages, m, lr, []int{0, 1, 2},
		Config{Pitch: 2, Weight: 150, MaxPasses: 8, HistoryGain: 1}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Nothing routed, but the map must still match the (unchanged) routes.
	checkMapMatchesRoutes(t, m, lr)
	_ = res
}
