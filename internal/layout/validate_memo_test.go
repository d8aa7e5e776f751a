package layout

import (
	"testing"

	"repro/internal/geom"
)

// lCellLayout places an L-shaped cell whose bounding box covers the notch
// region — the case where the memoized strict-containment check with its
// bounding-box prefilter must still agree with the exact polygon test.
func lCellLayout(pin geom.Point, cell CellID) *Layout {
	return &Layout{
		Name:   "lmemo",
		Bounds: geom.R(0, 0, 200, 200),
		Cells: []Cell{{
			Name: "L",
			Poly: []geom.Point{
				geom.Pt(40, 40), geom.Pt(140, 40), geom.Pt(140, 90),
				geom.Pt(90, 90), geom.Pt(90, 140), geom.Pt(40, 140),
			},
		}},
		Nets: []Net{{
			Name: "n",
			Terminals: []Terminal{
				{Name: "a", Pins: []Pin{{Name: "p", Pos: pin, Cell: cell}}},
				{Name: "b", Pins: []Pin{{Name: "p", Pos: geom.Pt(0, 0), Cell: NoCell}}},
			},
		}},
	}
}

func TestValidatePinInPolygonNotch(t *testing.T) {
	// (120, 120) is inside the L's bounding box but in the notch — outside
	// the polygon — so a pad pin there is legal.
	if err := lCellLayout(geom.Pt(120, 120), NoCell).Validate(); err != nil {
		t.Fatalf("notch pad pin rejected: %v", err)
	}
	// (60, 60) is strictly inside the L body: must be rejected.
	if err := lCellLayout(geom.Pt(60, 60), NoCell).Validate(); err == nil {
		t.Fatal("interior pin accepted")
	}
	// (90, 100) is on the notch boundary: legal as the cell's own pin.
	if err := lCellLayout(geom.Pt(90, 100), 0).Validate(); err != nil {
		t.Fatalf("notch boundary pin rejected: %v", err)
	}
	// (91, 100) is one unit inside: not on the boundary.
	if err := lCellLayout(geom.Pt(91, 100), 0).Validate(); err == nil {
		t.Fatal("off-boundary cell pin accepted")
	}
}

func TestValidateRectBoundaryFastPath(t *testing.T) {
	base := func(pin Pin) *Layout {
		return &Layout{
			Name:   "rects",
			Bounds: geom.R(0, 0, 100, 100),
			Cells:  []Cell{{Name: "c", Box: geom.R(20, 20, 60, 60)}},
			Nets: []Net{{
				Name: "n",
				Terminals: []Terminal{
					{Name: "a", Pins: []Pin{pin}},
					{Name: "b", Pins: []Pin{{Name: "q", Pos: geom.Pt(0, 0), Cell: NoCell}}},
				},
			}},
		}
	}
	for _, tc := range []struct {
		pin Pin
		ok  bool
	}{
		{Pin{Name: "p", Pos: geom.Pt(20, 30), Cell: 0}, true},       // west edge
		{Pin{Name: "p", Pos: geom.Pt(60, 60), Cell: 0}, true},       // corner
		{Pin{Name: "p", Pos: geom.Pt(30, 30), Cell: 0}, false},      // interior, own cell
		{Pin{Name: "p", Pos: geom.Pt(30, 30), Cell: NoCell}, false}, // interior pad
		{Pin{Name: "p", Pos: geom.Pt(61, 30), Cell: 0}, false},      // off boundary
		{Pin{Name: "p", Pos: geom.Pt(10, 10), Cell: NoCell}, true},  // free space
	} {
		err := base(tc.pin).Validate()
		if tc.ok && err != nil {
			t.Errorf("pin %v: unexpected error %v", tc.pin.Pos, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("pin %v (cell %d): accepted", tc.pin.Pos, tc.pin.Cell)
		}
	}
}
