package plane

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/layout"
)

// fixture: two cells in a 100x100 area.
//
//	A = [10,10..30,40]   B = [50,20..80,60]
func fixture(t testing.TB) *Index {
	t.Helper()
	ix, err := New(geom.R(0, 0, 100, 100), []geom.Rect{
		geom.R(10, 10, 30, 40),
		geom.R(50, 20, 80, 60),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(geom.R(0, 0, 0, 10), nil); err == nil {
		t.Error("zero-width bounds must be rejected")
	}
	if _, err := New(geom.R(0, 0, 10, 10), []geom.Rect{geom.R(1, 1, 1, 5)}); err == nil {
		t.Error("degenerate obstacle must be rejected")
	}
}

func TestFromLayout(t *testing.T) {
	l := &layout.Layout{
		Name:   "t",
		Bounds: geom.R(0, 0, 50, 50),
		Cells:  []layout.Cell{{Name: "A", Box: geom.R(5, 5, 10, 10)}},
	}
	ix, err := FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumCells() != 1 || ix.Cell(0) != geom.R(5, 5, 10, 10) {
		t.Error("FromLayout did not copy cells")
	}
	if ix.Bounds() != l.Bounds {
		t.Error("bounds mismatch")
	}
}

func TestPointBlocked(t *testing.T) {
	ix := fixture(t)
	cases := []struct {
		p       geom.Point
		blocked bool
	}{
		{geom.Pt(20, 20), true},  // inside A
		{geom.Pt(60, 40), true},  // inside B
		{geom.Pt(10, 20), false}, // on A's left edge
		{geom.Pt(30, 40), false}, // A's corner
		{geom.Pt(40, 40), false}, // between cells
		{geom.Pt(0, 0), false},   // bounds corner
	}
	for _, c := range cases {
		if _, got := ix.PointBlocked(c.p); got != c.blocked {
			t.Errorf("PointBlocked(%v) = %v, want %v", c.p, got, c.blocked)
		}
	}
	if cell, ok := ix.PointBlocked(geom.Pt(20, 20)); !ok || cell != 0 {
		t.Errorf("blocking cell should be 0, got %d", cell)
	}
}

func TestRayHitEast(t *testing.T) {
	ix := fixture(t)
	// Ray at y=25 from x=0 travelling east: hits A's left edge at x=10.
	h := ix.RayHit(geom.Pt(0, 25), geom.East, 100)
	if !h.Blocked || h.Stop != 10 || h.Cell != 0 {
		t.Errorf("east ray: %+v", h)
	}
	// From A's right edge x=30 at y=25: next obstacle is B at x=50.
	h = ix.RayHit(geom.Pt(30, 25), geom.East, 100)
	if !h.Blocked || h.Stop != 50 || h.Cell != 1 {
		t.Errorf("east ray from A edge: %+v", h)
	}
	// Along A's top boundary y=40 — boundary sliding is allowed; next stop
	// is B (spans y 20..60 so 40 is interior of its span).
	h = ix.RayHit(geom.Pt(0, 40), geom.East, 100)
	if !h.Blocked || h.Stop != 50 || h.Cell != 1 {
		t.Errorf("boundary slide: %+v", h)
	}
	// y=70 clears both cells: run to the limit.
	h = ix.RayHit(geom.Pt(0, 70), geom.East, 100)
	if h.Blocked || h.Stop != 100 {
		t.Errorf("clear ray: %+v", h)
	}
	// Limit clamped to bounds.
	h = ix.RayHit(geom.Pt(0, 70), geom.East, 1000)
	if h.Stop != 100 {
		t.Errorf("limit should clamp to bounds: %+v", h)
	}
	// Limit short of the obstacle: unblocked.
	h = ix.RayHit(geom.Pt(0, 25), geom.East, 5)
	if h.Blocked || h.Stop != 5 {
		t.Errorf("short ray: %+v", h)
	}
	// Ray starting on A's left edge going east: blocked immediately.
	h = ix.RayHit(geom.Pt(10, 25), geom.East, 100)
	if !h.Blocked || h.Stop != 10 || h.Cell != 0 {
		t.Errorf("immediate block: %+v", h)
	}
}

func TestRayHitWest(t *testing.T) {
	ix := fixture(t)
	h := ix.RayHit(geom.Pt(100, 25), geom.West, 0)
	if !h.Blocked || h.Stop != 80 || h.Cell != 1 {
		t.Errorf("west ray: %+v", h)
	}
	h = ix.RayHit(geom.Pt(50, 25), geom.West, 0)
	if !h.Blocked || h.Stop != 30 || h.Cell != 0 {
		t.Errorf("west ray between cells: %+v", h)
	}
	h = ix.RayHit(geom.Pt(100, 70), geom.West, 0)
	if h.Blocked || h.Stop != 0 {
		t.Errorf("clear west ray: %+v", h)
	}
}

func TestRayHitNorthSouth(t *testing.T) {
	ix := fixture(t)
	// North at x=20 from y=0: A spans x 10..30, so blocked at y=10.
	h := ix.RayHit(geom.Pt(20, 0), geom.North, 100)
	if !h.Blocked || h.Stop != 10 || h.Cell != 0 {
		t.Errorf("north ray: %+v", h)
	}
	// North at x=20 from A's top y=40: clear to 100.
	h = ix.RayHit(geom.Pt(20, 40), geom.North, 100)
	if h.Blocked || h.Stop != 100 {
		t.Errorf("north ray above A: %+v", h)
	}
	// South at x=60 from y=100: B top edge at y=60.
	h = ix.RayHit(geom.Pt(60, 100), geom.South, 0)
	if !h.Blocked || h.Stop != 60 || h.Cell != 1 {
		t.Errorf("south ray: %+v", h)
	}
	// South along B's left boundary x=50: boundary sliding allowed.
	h = ix.RayHit(geom.Pt(50, 100), geom.South, 0)
	if h.Blocked || h.Stop != 0 {
		t.Errorf("south boundary slide: %+v", h)
	}
}

func TestRayHitDirNone(t *testing.T) {
	ix := fixture(t)
	h := ix.RayHit(geom.Pt(5, 5), geom.DirNone, 100)
	if h.Blocked || h.Stop != 5 {
		t.Errorf("DirNone ray should stay put: %+v", h)
	}
}

func TestSegBlocked(t *testing.T) {
	ix := fixture(t)
	cases := []struct {
		s       geom.Seg
		blocked bool
	}{
		{geom.S(geom.Pt(0, 25), geom.Pt(100, 25)), true},   // through both
		{geom.S(geom.Pt(0, 25), geom.Pt(10, 25)), false},   // stops at A's edge
		{geom.S(geom.Pt(0, 25), geom.Pt(11, 25)), true},    // one unit inside
		{geom.S(geom.Pt(0, 40), geom.Pt(40, 40)), false},   // along A's top
		{geom.S(geom.Pt(100, 25), geom.Pt(80, 25)), false}, // stops at B's right edge
		{geom.S(geom.Pt(100, 25), geom.Pt(79, 25)), true},
		{geom.S(geom.Pt(20, 0), geom.Pt(20, 10)), false}, // touches A's bottom
		{geom.S(geom.Pt(20, 0), geom.Pt(20, 11)), true},
		{geom.S(geom.Pt(40, 0), geom.Pt(40, 100)), false}, // vertical between cells
		{geom.S(geom.Pt(5, 5), geom.Pt(5, 5)), false},     // degenerate outside
		{geom.S(geom.Pt(20, 20), geom.Pt(20, 20)), true},  // degenerate inside A
	}
	for _, c := range cases {
		if _, got := ix.SegBlocked(c.s); got != c.blocked {
			t.Errorf("SegBlocked(%v) = %v, want %v", c.s, got, c.blocked)
		}
	}
}

func TestPathBlocked(t *testing.T) {
	ix := fixture(t)
	clear := []geom.Point{geom.Pt(0, 0), geom.Pt(40, 0), geom.Pt(40, 70), geom.Pt(100, 70)}
	if _, b := ix.PathBlocked(clear); b {
		t.Error("clear path flagged blocked")
	}
	bad := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 25), geom.Pt(100, 25)}
	if cell, b := ix.PathBlocked(bad); !b || cell != 0 {
		t.Errorf("blocked path not detected: cell=%d b=%v", cell, b)
	}
}

func TestOverlay(t *testing.T) {
	ix := fixture(t)
	ov, _, err := ix.Edit(nil, []geom.Rect{geom.R(35, 0, 45, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if ov.NumCells() != 3 {
		t.Fatalf("overlay should have 3 cells, has %d", ov.NumCells())
	}
	if ix.NumCells() != 2 {
		t.Fatal("overlay must not mutate the original")
	}
	// The vertical corridor at x=40 is blocked in the overlay only.
	s := geom.S(geom.Pt(40, 50), geom.Pt(40, 51))
	if _, b := ix.SegBlocked(s); b {
		t.Error("corridor should be clear in the base index")
	}
	if _, b := ov.SegBlocked(s); !b {
		t.Error("corridor should be blocked in the overlay")
	}
}

func TestCellsCopy(t *testing.T) {
	ix := fixture(t)
	cs := ix.Cells()
	cs[0] = geom.R(0, 0, 1, 1)
	if ix.Cell(0) == cs[0] {
		t.Error("Cells must return a copy")
	}
}

// TestRayHitMatchesNaive cross-checks the sorted-order ray tracer against a
// brute-force scan over random obstacle fields — the core correctness
// property of the plane index.
func TestRayHitMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bounds := geom.R(0, 0, 200, 200)
		var rects []geom.Rect
		for i := 0; i < 12; i++ {
			x, y := int64(r.Intn(180)), int64(r.Intn(180))
			w, h := int64(r.Intn(18)+2), int64(r.Intn(18)+2)
			c := geom.R(x, y, geom.Min(x+w, 200), geom.Min(y+h, 200))
			if c.Width() <= 0 || c.Height() <= 0 {
				continue
			}
			rects = append(rects, c)
		}
		ix, err := New(bounds, rects)
		if err != nil {
			return false
		}
		for trial := 0; trial < 50; trial++ {
			from := geom.Pt(int64(r.Intn(201)), int64(r.Intn(201)))
			d := geom.Dirs[r.Intn(4)]
			var limit geom.Coord
			if d == geom.East {
				limit = 200
			} else if d == geom.North {
				limit = 200
			}
			got := ix.RayHit(from, d, limit)
			want := naiveRay(bounds, rects, from, d, limit)
			if got.Blocked != want.Blocked || got.Stop != want.Stop {
				t.Logf("seed=%d from=%v dir=%v: got %+v want %+v", seed, from, d, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// naiveRay is the O(n) reference implementation of RayHit.
func naiveRay(bounds geom.Rect, rects []geom.Rect, from geom.Point, d geom.Dir, limit geom.Coord) Hit {
	switch d {
	case geom.East:
		limit = geom.Min(limit, bounds.MaxX)
		best := Hit{Stop: limit, Cell: -1}
		for i, c := range rects {
			if c.MinY < from.Y && from.Y < c.MaxY && c.MinX >= from.X && c.MinX < best.Stop {
				best = Hit{Stop: c.MinX, Cell: i, Blocked: true}
			}
		}
		return best
	case geom.West:
		limit = geom.Max(limit, bounds.MinX)
		best := Hit{Stop: limit, Cell: -1}
		for i, c := range rects {
			if c.MinY < from.Y && from.Y < c.MaxY && c.MaxX <= from.X && c.MaxX > best.Stop {
				best = Hit{Stop: c.MaxX, Cell: i, Blocked: true}
			}
		}
		return best
	case geom.North:
		limit = geom.Min(limit, bounds.MaxY)
		best := Hit{Stop: limit, Cell: -1}
		for i, c := range rects {
			if c.MinX < from.X && from.X < c.MaxX && c.MinY >= from.Y && c.MinY < best.Stop {
				best = Hit{Stop: c.MinY, Cell: i, Blocked: true}
			}
		}
		return best
	case geom.South:
		limit = geom.Max(limit, bounds.MinY)
		best := Hit{Stop: limit, Cell: -1}
		for i, c := range rects {
			if c.MinX < from.X && from.X < c.MaxX && c.MaxY <= from.Y && c.MaxY > best.Stop {
				best = Hit{Stop: c.MaxY, Cell: i, Blocked: true}
			}
		}
		return best
	}
	return Hit{Stop: 0, Cell: -1}
}

func BenchmarkRayHit(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	var rects []geom.Rect
	for i := 0; i < 200; i++ {
		x, y := int64(r.Intn(1900)), int64(r.Intn(1900))
		rects = append(rects, geom.R(x, y, x+int64(r.Intn(80)+10), y+int64(r.Intn(80)+10)))
	}
	ix, err := New(geom.R(0, 0, 2000, 2000), rects)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := geom.Pt(int64(i%2000), int64((i*7)%2000))
		ix.RayHit(from, geom.Dirs[i%4], 2000)
	}
}

// TestPolygonCellSeams: an L-shaped polygon cell indexed through its double
// decomposition must block its internal seam while keeping the true outline
// hug-legal — the obstacle-model contract for the paper's orthogonal-
// polygon extension.
func TestPolygonCellSeams(t *testing.T) {
	l := &layout.Layout{
		Name:   "poly",
		Bounds: geom.R(0, 0, 100, 100),
		Cells: []layout.Cell{
			{Name: "L", Poly: []geom.Point{
				geom.Pt(20, 20), geom.Pt(60, 20), geom.Pt(60, 40),
				geom.Pt(40, 40), geom.Pt(40, 60), geom.Pt(20, 60),
			}},
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	// Internal seam of the vertical decomposition: x=40, y in (20,40).
	if _, blocked := ix.SegBlocked(geom.S(geom.Pt(40, 22), geom.Pt(40, 38))); !blocked {
		t.Fatal("polygon seam must be blocked")
	}
	if _, blocked := ix.PointBlocked(geom.Pt(30, 30)); !blocked {
		t.Fatal("polygon interior must be blocked")
	}
	// The notch region is free.
	if _, blocked := ix.PointBlocked(geom.Pt(50, 50)); blocked {
		t.Fatal("notch must be free")
	}
	// Outline segments are hug-legal.
	if _, blocked := ix.SegBlocked(geom.S(geom.Pt(40, 40), geom.Pt(40, 60))); blocked {
		t.Fatal("notch boundary must be passable")
	}
	if _, blocked := ix.SegBlocked(geom.S(geom.Pt(20, 20), geom.Pt(60, 20))); blocked {
		t.Fatal("bottom outline must be passable")
	}
}

func TestBoundaryCells(t *testing.T) {
	ix := fixture(t) // A=[10,10..30,40], B=[50,20..80,60]
	cases := []struct {
		p    geom.Point
		want int // number of boundary cells
	}{
		{geom.Pt(10, 20), 1}, // A's left edge
		{geom.Pt(30, 40), 1}, // A's corner
		{geom.Pt(20, 20), 0}, // strictly inside A: not boundary
		{geom.Pt(40, 40), 0}, // free space
		{geom.Pt(50, 30), 1}, // B's left edge
		{geom.Pt(0, 0), 0},   // bounds corner
	}
	var buf [4]int
	for _, c := range cases {
		got := ix.BoundaryCells(c.p, buf[:0])
		if len(got) != c.want {
			t.Errorf("BoundaryCells(%v) = %v, want %d cells", c.p, got, c.want)
		}
	}
}

func TestOverlayStacking(t *testing.T) {
	// Repeated overlays accumulate obstacles without disturbing earlier
	// indices — the access pattern of the sequential router.
	ix := fixture(t)
	var stack []*Index
	stack = append(stack, ix)
	for i := 0; i < 5; i++ {
		x := geom.Coord(10 + 15*i)
		next, _, err := stack[len(stack)-1].Edit(nil, []geom.Rect{geom.R(x, 70, x+10, 80)})
		if err != nil {
			t.Fatal(err)
		}
		stack = append(stack, next)
	}
	for i, s := range stack {
		if s.NumCells() != 2+i {
			t.Fatalf("stack[%d] has %d cells, want %d", i, s.NumCells(), 2+i)
		}
	}
	// A ray across y=75 is progressively more blocked down the stack.
	prevStop := geom.Coord(101)
	for i := len(stack) - 1; i >= 1; i-- {
		h := stack[i].RayHit(geom.Pt(0, 75), geom.East, 100)
		if !h.Blocked {
			t.Fatalf("stack[%d] should block the ray", i)
		}
		if h.Stop > prevStop {
			t.Fatalf("blocking should not recede: %d then %d", prevStop, h.Stop)
		}
		prevStop = h.Stop
	}
	if h := stack[0].RayHit(geom.Pt(0, 75), geom.East, 100); h.Blocked {
		t.Fatal("base index must stay clear at y=75")
	}
}
