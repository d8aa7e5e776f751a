package genroute

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// demoLayout builds a small chip: three cells, a two-pin net, a
// three-terminal net and a pad net.
func demoLayout() *Layout {
	return &Layout{
		Name:   "demo",
		Bounds: R(0, 0, 300, 300),
		Cells: []Cell{
			{Name: "alu", Box: R(30, 30, 110, 130)},
			{Name: "rom", Box: R(150, 40, 260, 120)},
			{Name: "ram", Box: R(60, 170, 200, 260)},
		},
		Nets: []Net{
			{Name: "bus", Terminals: []Terminal{
				{Name: "alu", Pins: []Pin{{Name: "p", Pos: Pt(110, 80), Cell: 0}}},
				{Name: "rom", Pins: []Pin{{Name: "p", Pos: Pt(150, 80), Cell: 1}}},
			}},
			{Name: "clk", Terminals: []Terminal{
				{Name: "alu", Pins: []Pin{{Name: "p", Pos: Pt(70, 130), Cell: 0}}},
				{Name: "rom", Pins: []Pin{{Name: "p", Pos: Pt(200, 120), Cell: 1}}},
				{Name: "ram", Pins: []Pin{{Name: "p", Pos: Pt(130, 170), Cell: 2}}},
			}},
			{Name: "in0", Terminals: []Terminal{
				{Name: "pad", Pins: []Pin{{Name: "p", Pos: Pt(0, 150), Cell: NoCell}}},
				{Name: "alu", Pins: []Pin{
					{Name: "west", Pos: Pt(30, 90), Cell: 0},
					{Name: "north", Pos: Pt(80, 130), Cell: 0},
				}},
			}},
		},
	}
}

// routeAll routes every net of l through a fresh Engine.
func routeAll(t *testing.T, l *Layout, opts ...Option) (*Engine, *Result) {
	t.Helper()
	e, err := NewEngine(l, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

func TestRouteAllDemo(t *testing.T) {
	l := demoLayout()
	e, res := routeAll(t, l)
	if len(res.Failed) != 0 {
		t.Fatalf("failed nets: %v", res.Failed)
	}
	for i := range res.Nets {
		if err := e.Validate(&res.Nets[i]); err != nil {
			t.Error(err)
		}
	}
	if err := CheckConnectivity(l, res); err != nil {
		t.Fatal(err)
	}
	// The bus runs straight across the 40-unit gap.
	for i := range res.Nets {
		if res.Nets[i].Net == "bus" && res.Nets[i].Length != 40 {
			t.Errorf("bus length = %d, want 40", res.Nets[i].Length)
		}
	}
}

func TestNewEngineRejectsInvalid(t *testing.T) {
	l := demoLayout()
	l.Cells[1].Box = R(100, 30, 260, 120) // overlaps alu
	if _, err := NewEngine(l); err == nil {
		t.Fatal("invalid layout must be rejected")
	}
}

func TestRouteNetByName(t *testing.T) {
	e, err := NewEngine(demoLayout())
	if err != nil {
		t.Fatal(err)
	}
	nr, err := e.RouteNet(context.Background(), "clk")
	if err != nil {
		t.Fatal(err)
	}
	if !nr.Found {
		t.Fatal("clk should route")
	}
	if err := e.Validate(&nr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNet(context.Background(), "nope"); err == nil {
		t.Fatal("unknown net must error")
	}
}

func TestRoutePointsFacade(t *testing.T) {
	e, err := NewEngine(demoLayout())
	if err != nil {
		t.Fatal(err)
	}
	route, err := e.RoutePoints(context.Background(), Pt(0, 0), Pt(300, 300))
	if err != nil {
		t.Fatal(err)
	}
	if !route.Found {
		t.Fatal("corner-to-corner should route")
	}
	// A monotone staircase around the cells exists, so the minimal route
	// is as short as the Manhattan distance.
	if route.Length != 600 {
		t.Fatalf("corner-to-corner length = %d, want 600", route.Length)
	}
}

func TestOptionsApply(t *testing.T) {
	l := demoLayout()
	for _, opts := range [][]Option{
		{WithCornerRule()},
		{WithAllDirs()},
		{WithWorkers(2)},
		{WithMaxExpansions(100000)},
		{WithCornerRule(), WithAllDirs(), WithWorkers(1)},
	} {
		_, res := routeAll(t, l, opts...)
		if len(res.Failed) != 0 {
			t.Fatalf("failures with options: %v", res.Failed)
		}
		if err := CheckConnectivity(l, res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultiPinTerminalConnectivity(t *testing.T) {
	// The in0 net may connect to either of the alu terminal's two pins;
	// connectivity must hold regardless of which pin was used.
	l := demoLayout()
	_, res := routeAll(t, l)
	if err := CheckConnectivity(l, res); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConnectivityCatchesGaps(t *testing.T) {
	l := demoLayout()
	_, res := routeAll(t, l)
	// Sabotage: drop all segments of a routed multi-terminal net.
	for i := range res.Nets {
		if res.Nets[i].Net == "clk" {
			res.Nets[i].Segments = nil
		}
	}
	if err := CheckConnectivity(l, res); err == nil {
		t.Fatal("gutted net should fail connectivity")
	}
}

func TestGeneratorsThroughFacade(t *testing.T) {
	l, err := Random(GenConfig{Seed: 5, Cells: 8, Nets: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, res := routeAll(t, l, WithWorkers(2))
	if err := CheckConnectivity(l, res); err != nil {
		t.Fatal(err)
	}

	g, err := GridOfMacros(2, 3, 50, 40, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, gres := routeAll(t, g)
	if len(gres.Failed) != 0 {
		t.Fatalf("grid failures: %v", gres.Failed)
	}

	p, err := PadRing(8, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, pres := routeAll(t, p)
	if len(pres.Failed) != 0 {
		t.Fatalf("pad ring failures: %v", pres.Failed)
	}
}

// TestCongestionFlowFacade pins the congestion flows, run through the
// Engine, to the per-pass overflow, rerouted count and wirelength of the
// C5/C7 funnel series: the paper's two-pass flow is the two-pass,
// zero-history special case of the negotiated loop.
func TestCongestionFlowFacade(t *testing.T) {
	twoPass := []Option{WithPitch(2), WithPenaltyWeight(300), WithMaxPasses(2), WithHistory(0, 0), WithWorkers(1)}
	negotiated := []Option{WithPitch(2), WithPenaltyWeight(60), WithMaxPasses(8), WithHistory(1, 0), WithWorkers(1)}
	type pass struct {
		overflow, rerouted int
		length             int64
	}
	for _, tc := range []struct {
		name string
		nets int
		opts []Option
		want []pass
	}{
		{"two-pass/4", 4, twoPass, []pass{{0, 0, 1712}}},
		{"two-pass/8", 8, twoPass, []pass{{3, 0, 3272}, {0, 8, 3512}}},
		{"two-pass/12", 12, twoPass, []pass{{7, 0, 5048}, {0, 12, 5928}}},
		{"negotiated/8", 8, negotiated, []pass{{3, 0, 3272}, {0, 8, 3512}}},
		{"negotiated/12", 12, negotiated, []pass{{7, 0, 5048}, {0, 12, 5544}}},
		{"negotiated/16", 16, negotiated, []pass{{7, 0, 6824}, {0, 12, 7320}}},
		{"negotiated/10-weight150", 10,
			[]Option{WithPitch(2), WithPenaltyWeight(150), WithWorkers(1), WithHistory(1, 0)},
			[]pass{{5, 0, 4128}, {0, 10, 5024}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(funnelLayout(tc.nets), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RouteNegotiated(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := make([]pass, len(res.Passes))
			for i, p := range res.Passes {
				got[i] = pass{p.Overflow, len(p.Rerouted), p.TotalLength}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("passes %v, want %v", got, tc.want)
			}
			if !res.Converged {
				t.Fatal("funnel series must converge")
			}
		})
	}
}

func TestRouteNegotiatedFacade(t *testing.T) {
	l := demoLayout()
	e, err := NewEngine(l, WithPitch(4), WithPenaltyWeight(100), WithMaxPasses(4), WithWorkers(2), WithHistory(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) == 0 {
		t.Fatal("at least one pass must run")
	}
	if err := CheckConnectivity(l, res.Final()); err != nil {
		t.Fatal(err)
	}
}

func TestAssignTracksFacade(t *testing.T) {
	e, _ := routeAll(t, demoLayout())
	tr, err := e.AssignTracks(0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Wires == 0 {
		t.Fatal("expected wires to assign")
	}
}

func TestLayoutJSONFacade(t *testing.T) {
	l := demoLayout()
	var buf bytes.Buffer
	if err := WriteLayout(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLayout(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "demo" || len(got.Nets) != 3 {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := ReadLayout(strings.NewReader("{")); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

func TestTreeLowerBound(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(20, 0), Pt(10, 15)}
	if lb := TreeLowerBound(pts); lb != 35 {
		t.Fatalf("lower bound = %d, want 35", lb)
	}
}

func TestPolygonCellsThroughFacade(t *testing.T) {
	l, err := PolyChip(3, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	e, res := routeAll(t, l, WithWorkers(2))
	if len(res.Failed) != 0 {
		t.Fatalf("polygon chip failures: %v", res.Failed)
	}
	if err := CheckConnectivity(l, res); err != nil {
		t.Fatal(err)
	}
	for i := range res.Nets {
		if err := e.Validate(&res.Nets[i]); err != nil {
			t.Error(err)
		}
	}
}

func TestHandBuiltPolygonCell(t *testing.T) {
	// An L-shaped cell declared inline via the Poly field, with a pin in
	// the notch region that a rectangular abstraction would embed.
	l := &Layout{
		Name:   "lcell",
		Bounds: R(0, 0, 200, 200),
		Cells: []Cell{{
			Name: "L",
			Poly: []Point{
				Pt(40, 40), Pt(140, 40), Pt(140, 90),
				Pt(90, 90), Pt(90, 140), Pt(40, 140),
			},
		}},
		Nets: []Net{{
			Name: "notch",
			Terminals: []Terminal{
				{Name: "in", Pins: []Pin{{Name: "p", Pos: Pt(100, 90), Cell: 0}}},
				{Name: "out", Pins: []Pin{{Name: "p", Pos: Pt(0, 0), Cell: NoCell}}},
			},
		}},
	}
	_, res := routeAll(t, l)
	if len(res.Failed) != 0 {
		t.Fatalf("failures: %v", res.Failed)
	}
	if err := CheckConnectivity(l, res); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustPlacementFacade(t *testing.T) {
	// Overload the funnel's slit, then let the feedback loop widen it.
	l := funnelLayout(10)
	e, err := NewEngine(l, WithPitch(2), WithAdjustIters(10), WithWorkers(1))
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
	if res.Layout.Bounds == l.Bounds {
		t.Fatal("die should have grown")
	}
	if len(res.Final.Failed) != 0 {
		t.Fatalf("final failures: %v", res.Final.Failed)
	}
}

func netName(i int) string { return "n" + string(rune('a'+i)) }
