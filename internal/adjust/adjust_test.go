package adjust

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/layout"
)

func TestConvergesOnFunnel(t *testing.T) {
	l := gen.Funnel(10) // slit capacity 8/2+1 = 5 at pitch 2: overflow 5
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(l, Options{Pitch: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("funnel should converge: %+v", res.Iterations)
	}
	if len(res.Iterations) < 2 {
		t.Fatalf("expected at least one expansion pass, got %d", len(res.Iterations))
	}
	first, last := res.Iterations[0], res.Iterations[len(res.Iterations)-1]
	if first.Overflow == 0 {
		t.Fatal("first pass should overflow")
	}
	if last.Overflow != 0 {
		t.Fatal("last pass should be overflow-free")
	}
	if last.DieArea <= first.DieArea-1 {
		t.Fatal("die must have grown")
	}
	// The input layout is untouched.
	if l.Bounds != geom.R(0, 0, 400, 200) {
		t.Fatal("input layout mutated")
	}
	// The adjusted layout still validates and routes completely.
	if err := res.Layout.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(res.Final.Failed) != 0 {
		t.Fatalf("final routing failures: %v", res.Final.Failed)
	}
	// The slit must have widened: the gap between the two cells grew.
	gap := res.Layout.Cells[1].Box.MinY - res.Layout.Cells[0].Box.MaxY
	if gap <= 8 {
		t.Fatalf("slit gap should exceed the original 8, got %d", gap)
	}
}

func TestNoCongestionIsImmediateConvergence(t *testing.T) {
	l := gen.Funnel(3)
	res, err := Run(l, Options{Pitch: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Iterations) != 1 {
		t.Fatalf("uncongested layout should converge immediately: %+v", res.Iterations)
	}
	if res.Layout.Bounds != l.Bounds {
		t.Fatal("no expansion expected")
	}
}

func TestIterationBudgetRespected(t *testing.T) {
	l := gen.Funnel(10)
	res, err := Run(l, Options{Pitch: 2, MaxIters: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("one iteration cannot converge this workload")
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("iterations = %d, want 1", len(res.Iterations))
	}
}

func TestApplyCutPreservesValidityAndPins(t *testing.T) {
	l := &layout.Layout{
		Name:   "cutcheck",
		Bounds: geom.R(0, 0, 100, 100),
		Cells: []layout.Cell{
			{Name: "west", Box: geom.R(10, 10, 30, 90)},
			{Name: "east", Box: geom.R(40, 10, 60, 90)},
			{Name: "poly", Poly: []geom.Point{
				geom.Pt(70, 10), geom.Pt(90, 10), geom.Pt(90, 30),
				geom.Pt(80, 30), geom.Pt(80, 50), geom.Pt(70, 50),
			}},
		},
		Nets: []layout.Net{{
			Name: "n",
			Terminals: []layout.Terminal{
				{Name: "a", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(30, 50), Cell: 0}}},
				{Name: "b", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(40, 50), Cell: 1}}},
				{Name: "pad", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(100, 50), Cell: layout.NoCell}}},
			},
		}},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Cut at x=40 (east cell's left edge), widen by 6.
	applyCut(l, cut{vertical: true, at: 40, need: 6})
	if err := l.Validate(); err != nil {
		t.Fatalf("cut broke validity: %v", err)
	}
	if l.Cells[0].Box != geom.R(10, 10, 30, 90) {
		t.Error("west cell must not move")
	}
	if l.Cells[1].Box != geom.R(46, 10, 66, 90) {
		t.Errorf("east cell should shift by 6: %v", l.Cells[1].Box)
	}
	if l.Cells[2].Poly[0] != geom.Pt(76, 10) {
		t.Errorf("polygon vertices should shift: %v", l.Cells[2].Poly[0])
	}
	if l.Nets[0].Terminals[0].Pins[0].Pos != geom.Pt(30, 50) {
		t.Error("west pin must not move")
	}
	if l.Nets[0].Terminals[1].Pins[0].Pos != geom.Pt(46, 50) {
		t.Errorf("east pin should move: %v", l.Nets[0].Terminals[1].Pins[0].Pos)
	}
	if l.Nets[0].Terminals[2].Pins[0].Pos != geom.Pt(106, 50) {
		t.Errorf("pad on the right edge should follow the die: %v", l.Nets[0].Terminals[2].Pins[0].Pos)
	}
	if l.Bounds.MaxX != 106 {
		t.Errorf("die should grow to 106: %v", l.Bounds)
	}
}

func TestHorizontalCut(t *testing.T) {
	l := gen.Funnel(4)
	applyCut(l, cut{vertical: false, at: 104, need: 10})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Cells[1].Box.MinY != 114 {
		t.Errorf("upper cell should shift up: %v", l.Cells[1].Box)
	}
	if l.Cells[0].Box.MaxY != 96 {
		t.Error("lower cell must not move")
	}
	if l.Bounds.MaxY != 210 {
		t.Errorf("die should grow: %v", l.Bounds)
	}
}
