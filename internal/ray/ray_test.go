package ray

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/plane"
)

// fixture: one cell in the middle of a 100x100 plane.
//
//	C = [40,40..60,60]
func fixture(t testing.TB, mode Mode) *Gen {
	t.Helper()
	ix, err := plane.New(geom.R(0, 0, 100, 100), []geom.Rect{geom.R(40, 40, 60, 60)})
	if err != nil {
		t.Fatal(err)
	}
	return &Gen{Ix: ix, Mode: mode}
}

// pointSink adapts a per-point callback to a Sink: each point is passed
// with the direction of the ray it lies on.
type pointSink struct {
	d  geom.Dir
	fn func(p geom.Point, d geom.Dir, n int)
}

func points(fn func(p geom.Point, d geom.Dir, n int)) *pointSink { return &pointSink{fn: fn} }

func (s *pointSink) Ray(_ geom.Point, d geom.Dir, _ geom.Coord) { s.d = d }
func (s *pointSink) Point(p geom.Point, n int)                  { s.fn(p, s.d, n) }

// collect gathers successors into a map point → direction.
func collect(g *Gen, at, guide geom.Point) map[geom.Point]geom.Dir {
	out := map[geom.Point]geom.Dir{}
	g.Successors(at, guide, points(func(p geom.Point, d geom.Dir, _ int) { out[p] = d }))
	return out
}

func TestDirectedFreeSpace(t *testing.T) {
	g := fixture(t, Directed)
	// From (0,0) toward (20,30): both rays unblocked, stop at alignment.
	succ := collect(g, geom.Pt(0, 0), geom.Pt(20, 30))
	if len(succ) != 2 {
		t.Fatalf("want 2 successors, got %v", succ)
	}
	if d, ok := succ[geom.Pt(20, 0)]; !ok || d != geom.East {
		t.Errorf("missing east alignment successor: %v", succ)
	}
	if d, ok := succ[geom.Pt(0, 30)]; !ok || d != geom.North {
		t.Errorf("missing north alignment successor: %v", succ)
	}
}

func TestDirectedAxisAligned(t *testing.T) {
	g := fixture(t, Directed)
	// Guide due east: only one ray.
	succ := collect(g, geom.Pt(0, 20), geom.Pt(30, 20))
	if len(succ) != 1 {
		t.Fatalf("want 1 successor, got %v", succ)
	}
	if _, ok := succ[geom.Pt(30, 20)]; !ok {
		t.Errorf("want alignment point (30,20): %v", succ)
	}
}

func TestDirectedCollision(t *testing.T) {
	g := fixture(t, Directed)
	// From (0,50) toward (100,50): the east ray hits C's left edge x=40.
	succ := collect(g, geom.Pt(0, 50), geom.Pt(100, 50))
	if d, ok := succ[geom.Pt(40, 50)]; !ok || d != geom.East {
		t.Fatalf("want collision successor (40,50) east: %v", succ)
	}
}

func TestHuggingFromCollisionPoint(t *testing.T) {
	g := fixture(t, Directed)
	// (40,50) sits mid-span on C's left edge; goal east beyond the cell.
	// The goalward ray is blocked at zero length; hugging emits the two
	// slides to C's west corners.
	succ := collect(g, geom.Pt(40, 50), geom.Pt(100, 50))
	if d, ok := succ[geom.Pt(40, 40)]; !ok || d != geom.South {
		t.Errorf("missing south hug to corner: %v", succ)
	}
	if d, ok := succ[geom.Pt(40, 60)]; !ok || d != geom.North {
		t.Errorf("missing north hug to corner: %v", succ)
	}
	if _, ok := succ[geom.Pt(40, 50)]; ok {
		t.Error("must not emit self")
	}
}

func TestHuggingAtCorner(t *testing.T) {
	g := fixture(t, Directed)
	// C's NW corner (40,60), goal to the southeast: hugging slides run
	// along both incident edges; goalward rays run east along the top
	// boundary (free) and south along the left boundary (free).
	succ := collect(g, geom.Pt(40, 60), geom.Pt(100, 0))
	if d, ok := succ[geom.Pt(100, 60)]; !ok || d != geom.East {
		t.Errorf("missing east boundary ray to alignment: %v", succ)
	}
	if d, ok := succ[geom.Pt(40, 0)]; !ok || d != geom.South {
		t.Errorf("missing south boundary ray to alignment: %v", succ)
	}
	// The hug slides toward (60,60) and (40,40) are also emitted.
	if _, ok := succ[geom.Pt(60, 60)]; !ok {
		t.Errorf("missing east hug slide to NE corner: %v", succ)
	}
	if _, ok := succ[geom.Pt(40, 40)]; !ok {
		t.Errorf("missing south hug slide to SW corner: %v", succ)
	}
}

func TestBoundaryRaySlidesAlongCell(t *testing.T) {
	g := fixture(t, Directed)
	// From (0,60) toward (100,60): y=60 is C's top boundary line, so the
	// east ray slides along it unblocked to the alignment at x=100.
	succ := collect(g, geom.Pt(0, 60), geom.Pt(100, 60))
	if d, ok := succ[geom.Pt(100, 60)]; !ok || d != geom.East {
		t.Fatalf("boundary ray should pass: %v", succ)
	}
}

func TestSlideStoppedByOtherCell(t *testing.T) {
	// A second cell D overlapping C's left-edge line stops the hug slide
	// early: D = [30,65..55,80] strictly contains x=40 in (30,55), so a
	// northward slide along x=40 stops at D.MinY=65... but C's top corner
	// is at 60 < 65, so use a D that interrupts the slide: D spans y
	// [30,80] to the west overlapping x=40? A vertical slide along C's
	// left edge x=40 is blocked by cells strictly containing x=40.
	ix, err := plane.New(geom.R(0, 0, 100, 100), []geom.Rect{
		geom.R(40, 40, 60, 60), // C
		geom.R(35, 10, 45, 30), // D: strictly contains x=40, below C
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &Gen{Ix: ix}
	// From (40,35) (on C's left edge extended? no — (40,35) is below C).
	// Use C's SW corner (40,40): the south hug... corners only slide along
	// incident edges. From collision point (40,50) goal east: south slide
	// along x=40 toward corner (40,40) — not blocked (D.MaxY=30 < 40).
	succ := collect(g, geom.Pt(40, 50), geom.Pt(100, 50))
	if _, ok := succ[geom.Pt(40, 40)]; !ok {
		t.Fatalf("south slide should reach corner: %v", succ)
	}
	// From (40,40) going south toward a guide below: ray at x=40 hits D's
	// top at y=30.
	succ = collect(g, geom.Pt(40, 40), geom.Pt(40, 0))
	if d, ok := succ[geom.Pt(40, 30)]; !ok || d != geom.South {
		t.Fatalf("south ray should stop at D's top: %v", succ)
	}
}

func TestAllDirsEmitsAwayRays(t *testing.T) {
	gd := fixture(t, Directed)
	ga := fixture(t, AllDirs)
	at, guide := geom.Pt(20, 20), geom.Pt(80, 80)
	nd := len(collect(gd, at, guide))
	na := len(collect(ga, at, guide))
	if na <= nd {
		t.Fatalf("AllDirs should emit more successors: directed=%d alldirs=%d", nd, na)
	}
	succ := collect(ga, at, guide)
	// Away rays run to the bounds.
	if d, ok := succ[geom.Pt(0, 20)]; !ok || d != geom.West {
		t.Errorf("missing west away-ray: %v", succ)
	}
	if d, ok := succ[geom.Pt(20, 0)]; !ok || d != geom.South {
		t.Errorf("missing south away-ray: %v", succ)
	}
}

func TestGuideAtSelf(t *testing.T) {
	g := fixture(t, Directed)
	// Guide == at: no goalward rays; not on any boundary: no successors.
	succ := collect(g, geom.Pt(5, 5), geom.Pt(5, 5))
	if len(succ) != 0 {
		t.Fatalf("expected no successors, got %v", succ)
	}
}

func TestSuccessorsNeverInsideObstacles(t *testing.T) {
	g := fixture(t, AllDirs)
	ix := g.Ix
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(40, 50), geom.Pt(40, 60), geom.Pt(50, 60),
		geom.Pt(99, 1), geom.Pt(60, 40), geom.Pt(0, 100),
	}
	guides := []geom.Point{geom.Pt(100, 100), geom.Pt(0, 0), geom.Pt(50, 50)}
	for _, at := range pts {
		for _, guide := range guides {
			g.Successors(at, guide, points(func(p geom.Point, d geom.Dir, _ int) {
				if _, blocked := ix.PointBlocked(p); blocked {
					t.Errorf("successor %v of %v (via %v) is inside an obstacle", p, at, d)
				}
				if !ix.InBounds(p) {
					t.Errorf("successor %v of %v out of bounds", p, at)
				}
				if p.X != at.X && p.Y != at.Y {
					t.Errorf("successor %v of %v is not axis-aligned", p, at)
				}
				if _, blocked := ix.SegBlocked(geom.S(at, p)); blocked {
					t.Errorf("edge %v->%v crosses an obstacle interior", at, p)
				}
			}))
		}
	}
}

func TestModeString(t *testing.T) {
	if Directed.String() != "directed" || AllDirs.String() != "all-dirs" {
		t.Error("Mode.String broken")
	}
}

func BenchmarkSuccessorsDirected(b *testing.B) {
	g := fixture(b, Directed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Successors(geom.Pt(0, 50), geom.Pt(100, 50), points(func(geom.Point, geom.Dir, int) {}))
	}
}

// TestCornerProjectionEmitted exercises the track-graph escape points
// directly: a ray passing an off-ray obstacle corner must emit the
// corner's visible projection.
func TestCornerProjectionEmitted(t *testing.T) {
	// Obstacle north of the ray: E = [49,23..62,28]. An east ray along
	// y=18 from (12,18) toward (56,43)'s guide... use guide (56,18) so the
	// ray runs to alignment at x=56, passing x=49 (E's left corner track).
	ix, err := plane.New(geom.R(0, 0, 100, 100), []geom.Rect{geom.R(49, 23, 62, 28)})
	if err != nil {
		t.Fatal(err)
	}
	g := &Gen{Ix: ix}
	succ := collect(g, geom.Pt(12, 18), geom.Pt(56, 18))
	if _, ok := succ[geom.Pt(49, 18)]; !ok {
		t.Fatalf("missing corner projection (49,18): %v", succ)
	}
	if _, ok := succ[geom.Pt(56, 18)]; !ok {
		t.Fatalf("missing alignment stop: %v", succ)
	}
}

// TestCornerProjectionRequiresVisibility: when another obstacle blocks the
// perpendicular from the corner to the ray, the projection must not be
// emitted (it is not a track vertex of that line).
func TestCornerProjectionRequiresVisibility(t *testing.T) {
	ix, err := plane.New(geom.R(0, 0, 100, 100), []geom.Rect{
		geom.R(49, 23, 62, 28), // E: corner at (49,23)
		geom.R(40, 19, 70, 22), // blocker between the ray y=18 and E
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &Gen{Ix: ix}
	succ := collect(g, geom.Pt(12, 18), geom.Pt(36, 18))
	// The ray stops at alignment x=36 (before the blocker's span), so no
	// projections in range anyway; extend the guide past the blocker:
	succ = collect(g, geom.Pt(12, 18), geom.Pt(39, 18))
	if _, ok := succ[geom.Pt(49, 18)]; ok {
		t.Fatalf("projection beyond the ray span must not appear: %v", succ)
	}
	// Full-length ray along y=18: the blocker spans y [19,22], x [40,70];
	// the ray itself is clear (y=18 below it), but E's corner at (49,23)
	// is hidden behind the blocker.
	succ = collect(g, geom.Pt(12, 18), geom.Pt(90, 18))
	if _, ok := succ[geom.Pt(49, 18)]; ok {
		t.Fatalf("occluded corner projection must not be emitted: %v", succ)
	}
	// The blocker's own corners project instead.
	if _, ok := succ[geom.Pt(40, 18)]; !ok {
		t.Fatalf("blocker corner projection missing: %v", succ)
	}
}

// TestCornerLinesOncePerRayOnMacroGrid casts a horizontal ray down the
// channel between the first two macro rows, across the whole chip. Every
// cell of a column has a corner on each of the column's two edge lines, and
// the line runs along the column's cell edges, so each of those corners is
// visible from the ray. The ray must emit each column-edge line once, in
// column order, with the number of rows as its count, where a per-corner
// emission would repeat the line once per cell.
func TestCornerLinesOncePerRayOnMacroGrid(t *testing.T) {
	const (
		rows, cols        = 6, 5
		cellW, cellH, gap = 40, 30, 12
	)
	l, err := gen.MacroGrid(rows, cols, cellW, cellH, gap, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	b := ix.Bounds()
	y := geom.Coord(gap + cellH + gap/2)
	var got []hit
	g := &Gen{Ix: ix}
	g.Successors(geom.Pt(b.MinX, y), geom.Pt(b.MaxX, y), points(func(p geom.Point, d geom.Dir, n int) {
		got = append(got, hit{p, d, n})
	}))
	want := []hit{{geom.Pt(b.MaxX, y), geom.East, 1}} // the ray's stop point
	for c := 0; c < cols; c++ {
		x := geom.Coord(gap + c*(cellW+gap))
		want = append(want, hit{geom.Pt(x, y), geom.East, rows}, hit{geom.Pt(x+cellW, y), geom.East, rows})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("emissions\n got %v\nwant %v", got, want)
	}
}

// raySink checks the Sink contract: every point lies on the ray announced
// last, strictly past its origin and no further than its stop, and the
// first point after an announcement is the stop point.
type raySink struct {
	t     *testing.T
	from  geom.Point
	d     geom.Dir
	stop  geom.Coord
	fresh bool
	rays  int
}

func (s *raySink) Ray(from geom.Point, d geom.Dir, stop geom.Coord) {
	s.from, s.d, s.stop, s.fresh = from, d, stop, true
	s.rays++
}

func (s *raySink) Point(p geom.Point, n int) {
	if s.rays == 0 {
		s.t.Fatalf("point %v before any ray", p)
	}
	along, across, from, fromAcross := p.X, p.Y, s.from.X, s.from.Y
	if !s.d.Horizontal() {
		along, across, from, fromAcross = p.Y, p.X, s.from.Y, s.from.X
	}
	step := s.d.Delta()
	sign := step.X + step.Y
	if across != fromAcross || (along-from)*sign <= 0 || (s.stop-along)*sign < 0 {
		s.t.Errorf("point %v is not on the ray from %v %v to %d", p, s.from, s.d, s.stop)
	}
	if s.fresh && along != s.stop {
		s.t.Errorf("first point %v of the ray from %v %v is not its stop %d", p, s.from, s.d, s.stop)
	}
	if n < 1 {
		s.t.Errorf("point %v stands for %d successors", p, n)
	}
	s.fresh = false
}

func TestRaysAnnouncedBeforeTheirPoints(t *testing.T) {
	l, err := gen.MacroGrid(4, 4, 40, 30, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	b := ix.Bounds()
	for _, mode := range []Mode{Directed, AllDirs} {
		g := &Gen{Ix: ix, Mode: mode}
		s := &raySink{t: t}
		for x := b.MinX; x <= b.MaxX; x += 13 {
			for y := b.MinY; y <= b.MaxY; y += 11 {
				at := geom.Pt(x, y)
				if _, blocked := ix.PointBlocked(at); blocked {
					continue
				}
				g.Successors(at, geom.Pt(b.MaxX-x, b.MaxY-y), s)
			}
		}
		if s.rays == 0 {
			t.Fatalf("%v: no rays cast", mode)
		}
	}
}
