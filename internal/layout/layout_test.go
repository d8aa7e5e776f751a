package layout

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

// valid returns a small well-formed layout used as the baseline fixture.
func valid() *Layout {
	return &Layout{
		Name:   "fixture",
		Bounds: geom.R(0, 0, 100, 100),
		Cells: []Cell{
			{Name: "A", Box: geom.R(10, 10, 30, 40)},
			{Name: "B", Box: geom.R(50, 20, 80, 60)},
		},
		Nets: []Net{
			{
				Name: "n1",
				Terminals: []Terminal{
					{Name: "t0", Pins: []Pin{{Name: "p0", Pos: geom.Pt(30, 20), Cell: 0}}},
					{Name: "t1", Pins: []Pin{{Name: "p1", Pos: geom.Pt(50, 30), Cell: 1}}},
				},
			},
		},
	}
}

func TestValidateAcceptsFixture(t *testing.T) {
	if err := valid().Validate(); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Layout)
		want   string
	}{
		{"zero-area bounds", func(l *Layout) { l.Bounds = geom.R(0, 0, 0, 100) }, "positive area"},
		{"unnamed cell", func(l *Layout) { l.Cells[0].Name = "" }, "no name"},
		{"duplicate cell name", func(l *Layout) { l.Cells[1].Name = "A" }, "duplicate cell"},
		{"zero-area cell", func(l *Layout) { l.Cells[0].Box = geom.R(10, 10, 10, 40) }, "positive area"},
		{"cell outside bounds", func(l *Layout) { l.Cells[0].Box = geom.R(-5, 10, 30, 40) }, "outside bounds"},
		{"overlapping cells", func(l *Layout) { l.Cells[1].Box = geom.R(20, 20, 60, 60) }, "non-zero separation"},
		{"touching cells", func(l *Layout) { l.Cells[1].Box = geom.R(30, 10, 60, 40) }, "non-zero separation"},
		{"unnamed net", func(l *Layout) { l.Nets[0].Name = "" }, "no name"},
		{"one-terminal net", func(l *Layout) { l.Nets[0].Terminals = l.Nets[0].Terminals[:1] }, "at least two terminals"},
		{"pinless terminal", func(l *Layout) { l.Nets[0].Terminals[0].Pins = nil }, "has no pins"},
		{"pin outside bounds", func(l *Layout) { l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(-1, 0) }, "outside bounds"},
		{"pin cell out of range", func(l *Layout) { l.Nets[0].Terminals[0].Pins[0].Cell = 9 }, "out of range"},
		{"pin off its cell boundary", func(l *Layout) { l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(90, 90) }, "boundary"},
		{"pin strictly inside its cell", func(l *Layout) { l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(20, 20) }, "boundary"},
		{"pad pin inside foreign cell", func(l *Layout) {
			l.Nets[0].Terminals[0].Pins[0] = Pin{Name: "pad", Pos: geom.Pt(60, 40), Cell: NoCell}
		}, "strictly inside"},
	}
	for _, c := range cases {
		l := valid()
		c.mutate(l)
		err := l.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDuplicateNetNameRejected(t *testing.T) {
	l := valid()
	n := l.Nets[0]
	n2 := Net{Name: n.Name, Terminals: n.Terminals}
	l.Nets = append(l.Nets, n2)
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate net") {
		t.Fatalf("want duplicate net error, got %v", err)
	}
}

func TestPadPinOnCellBoundaryAllowed(t *testing.T) {
	// A pad pin may touch a cell boundary — only strict interiors are
	// forbidden.
	l := valid()
	l.Nets[0].Terminals[0].Pins[0] = Pin{Name: "pad", Pos: geom.Pt(10, 10), Cell: NoCell}
	if err := l.Validate(); err != nil {
		t.Fatalf("boundary pad pin should be legal: %v", err)
	}
}

func TestMinSeparation(t *testing.T) {
	l := valid() // A right edge x=30, B left edge x=50 → gap 20
	if got := l.MinSeparation(); got != 20 {
		t.Errorf("MinSeparation = %d, want 20", got)
	}
	one := &Layout{Bounds: geom.R(0, 0, 10, 10), Cells: []Cell{{Name: "A", Box: geom.R(1, 1, 2, 2)}}}
	if one.MinSeparation() != -1 {
		t.Error("single cell should report -1")
	}
	// Diagonal gap: dx+dy.
	diag := &Layout{
		Bounds: geom.R(0, 0, 100, 100),
		Cells: []Cell{
			{Name: "A", Box: geom.R(0, 0, 10, 10)},
			{Name: "B", Box: geom.R(13, 14, 20, 20)},
		},
	}
	if got := diag.MinSeparation(); got != 7 {
		t.Errorf("diagonal MinSeparation = %d, want 7", got)
	}
}

func TestSummary(t *testing.T) {
	s := valid().Summary()
	if s.Cells != 2 || s.Nets != 1 || s.Terminals != 2 || s.Pins != 2 {
		t.Errorf("Summary counts wrong: %+v", s)
	}
	wantArea := geom.Coord(20*30 + 30*40)
	if s.CellArea != wantArea {
		t.Errorf("CellArea = %d, want %d", s.CellArea, wantArea)
	}
	if s.Utilization <= 0 || s.Utilization >= 100 {
		t.Errorf("Utilization = %f out of range", s.Utilization)
	}
}

func TestCloneIsDeep(t *testing.T) {
	l := valid()
	c := l.Clone()
	c.Cells[0].Box = geom.R(0, 0, 1, 1)
	c.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(99, 99)
	c.Nets[0].Name = "changed"
	if l.Cells[0].Box == c.Cells[0].Box {
		t.Error("cell boxes aliased")
	}
	if l.Nets[0].Terminals[0].Pins[0].Pos == geom.Pt(99, 99) {
		t.Error("pins aliased")
	}
	if l.Nets[0].Name == "changed" {
		t.Error("net names aliased")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := valid()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != l.Name || len(got.Cells) != len(l.Cells) || len(got.Nets) != len(l.Nets) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Cells[0].Box != l.Cells[0].Box {
		t.Error("cell box did not round-trip")
	}
	if got.Nets[0].Terminals[1].Pins[0].Pos != l.Nets[0].Terminals[1].Pins[0].Pos {
		t.Error("pin did not round-trip")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	// Touching cells must be rejected at read time too.
	bad := `{"name":"x","bounds":{"MinX":0,"MinY":0,"MaxX":10,"MaxY":10},
		"cells":[{"name":"a","box":{"MinX":0,"MinY":0,"MaxX":5,"MaxY":5}},
		         {"name":"b","box":{"MinX":5,"MinY":0,"MaxX":9,"MaxY":5}}],
		"nets":[]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("touching cells must fail ReadJSON")
	}
	if _, err := ReadJSON(strings.NewReader("{nonsense")); err == nil {
		t.Fatal("malformed JSON must fail")
	}
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","unknown_field":1}`)); err == nil {
		t.Fatal("unknown fields must fail")
	}
}

func TestNetHelpers(t *testing.T) {
	l := valid()
	n := &l.Nets[0]
	if n.PinCount() != 2 {
		t.Errorf("PinCount = %d", n.PinCount())
	}
	pins := n.AllPins()
	if len(pins) != 2 || pins[0].Name != "p0" || pins[1].Name != "p1" {
		t.Errorf("AllPins = %v", pins)
	}
}

// polyCellLayout builds a layout with one L-shaped cell.
func polyCellLayout() *Layout {
	return &Layout{
		Name:   "poly",
		Bounds: geom.R(0, 0, 100, 100),
		Cells: []Cell{{
			Name: "L",
			Poly: []geom.Point{
				geom.Pt(20, 20), geom.Pt(60, 20), geom.Pt(60, 40),
				geom.Pt(40, 40), geom.Pt(40, 60), geom.Pt(20, 60),
			},
		}},
		Nets: []Net{{
			Name: "n",
			Terminals: []Terminal{
				{Name: "a", Pins: []Pin{{Name: "p", Pos: geom.Pt(60, 30), Cell: 0}}},
				{Name: "b", Pins: []Pin{{Name: "p", Pos: geom.Pt(0, 0), Cell: NoCell}}},
			},
		}},
	}
}

func TestPolygonCellValidates(t *testing.T) {
	l := polyCellLayout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Validate fills in the bounding box.
	if l.Cells[0].Box != geom.R(20, 20, 60, 60) {
		t.Fatalf("box should be filled from polygon: %v", l.Cells[0].Box)
	}
	// Summary uses the true polygon area (1200, not the 1600 bbox).
	if s := l.Summary(); s.CellArea != 1200 {
		t.Fatalf("CellArea = %d, want 1200", s.CellArea)
	}
}

func TestPolygonCellRejections(t *testing.T) {
	// Box not matching the polygon bounds.
	l := polyCellLayout()
	l.Cells[0].Box = geom.R(0, 0, 99, 99)
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("box mismatch should fail: %v", err)
	}
	// Bad polygon ring.
	l = polyCellLayout()
	l.Cells[0].Poly = l.Cells[0].Poly[:3]
	if err := l.Validate(); err == nil {
		t.Fatal("truncated polygon should fail")
	}
	// Pin in the notch (outside the polygon, not on its boundary).
	l = polyCellLayout()
	l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(55, 55)
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "boundary") {
		t.Fatalf("notch pin should fail: %v", err)
	}
	// Pin strictly inside the polygon.
	l = polyCellLayout()
	l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(30, 30)
	if err := l.Validate(); err == nil {
		t.Fatal("interior pin should fail")
	}
	// Pad pin strictly inside the polygon.
	l = polyCellLayout()
	l.Nets[0].Terminals[1].Pins[0] = Pin{Name: "p", Pos: geom.Pt(30, 30), Cell: NoCell}
	if err := l.Validate(); err == nil {
		t.Fatal("pad inside polygon should fail")
	}
}

func TestPolygonPinOnNotchBoundary(t *testing.T) {
	// The notch edges are true boundary: a pin there is legal.
	l := polyCellLayout()
	l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(50, 40) // notch bottom edge
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(40, 50) // notch left edge
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInterlockingPolygonsAllowed(t *testing.T) {
	// Two L-shapes whose bounding boxes overlap but whose bodies keep a
	// positive gap: legal under the exact separation check.
	l := &Layout{
		Name:   "interlock",
		Bounds: geom.R(0, 0, 100, 100),
		Cells: []Cell{
			{Name: "A", Poly: []geom.Point{
				geom.Pt(10, 10), geom.Pt(60, 10), geom.Pt(60, 30),
				geom.Pt(30, 30), geom.Pt(30, 60), geom.Pt(10, 60),
			}},
			// B nests into A's notch with a >= 4 unit gap everywhere.
			{Name: "B", Poly: []geom.Point{
				geom.Pt(36, 36), geom.Pt(80, 36), geom.Pt(80, 80),
				geom.Pt(60, 80), geom.Pt(60, 56), geom.Pt(36, 56),
			}},
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("interlocking polygons with a gap must validate: %v", err)
	}
	if l.MinSeparation() < 4 {
		t.Fatalf("separation = %d", l.MinSeparation())
	}
	// Shift B to touch A: rejected.
	for i := range l.Cells[1].Poly {
		l.Cells[1].Poly[i] = l.Cells[1].Poly[i].Add(geom.Pt(-6, -6))
	}
	l.Cells[1].Box = geom.Rect{}
	if err := l.Validate(); err == nil {
		t.Fatal("touching polygon bodies must be rejected")
	}
}

func TestPolygonJSONRoundTrip(t *testing.T) {
	l := polyCellLayout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells[0].Poly) != 6 {
		t.Fatalf("polygon did not round-trip: %v", got.Cells[0].Poly)
	}
}

func TestCloneCopiesPolygon(t *testing.T) {
	l := polyCellLayout()
	c := l.Clone()
	c.Cells[0].Poly[0] = geom.Pt(99, 99)
	if l.Cells[0].Poly[0] == geom.Pt(99, 99) {
		t.Fatal("polygon vertices aliased across Clone")
	}
}
