package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointBasics(t *testing.T) {
	p, q := Pt(3, 4), Pt(-1, 2)
	if got := p.Add(q); got != Pt(2, 6) {
		t.Errorf("Add = %v, want (2,6)", got)
	}
	if got := p.Sub(q); got != Pt(4, 2) {
		t.Errorf("Sub = %v, want (4,2)", got)
	}
	if got := p.Manhattan(q); got != 6 {
		t.Errorf("Manhattan = %d, want 6", got)
	}
	if p.String() != "(3,4)" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPointLess(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Pt(0, 0), Pt(1, 0), true},
		{Pt(1, 0), Pt(0, 0), false},
		{Pt(0, 0), Pt(0, 1), true},
		{Pt(0, 1), Pt(0, 0), false},
		{Pt(0, 0), Pt(0, 0), false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattanMetricProperties(t *testing.T) {
	// Manhattan distance must satisfy the metric axioms; testing/quick
	// exercises random point triples.
	r := rand.New(rand.NewSource(1))
	gen := func() Point { return Pt(int64(r.Intn(2001)-1000), int64(r.Intn(2001)-1000)) }
	for i := 0; i < 2000; i++ {
		a, b, c := gen(), gen(), gen()
		if a.Manhattan(b) != b.Manhattan(a) {
			t.Fatalf("symmetry violated for %v %v", a, b)
		}
		if a.Manhattan(a) != 0 {
			t.Fatalf("identity violated for %v", a)
		}
		if a.Manhattan(c) > a.Manhattan(b)+b.Manhattan(c) {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
		if a != b && a.Manhattan(b) <= 0 {
			t.Fatalf("positivity violated for %v %v", a, b)
		}
	}
}

func TestAbsMinMaxClamp(t *testing.T) {
	if Abs(-5) != 5 || Abs(5) != 5 || Abs(0) != 0 {
		t.Error("Abs broken")
	}
	if Min(2, 3) != 2 || Min(3, 2) != 2 {
		t.Error("Min broken")
	}
	if Max(2, 3) != 3 || Max(3, 2) != 3 {
		t.Error("Max broken")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp broken")
	}
}

func TestDir(t *testing.T) {
	if East.Delta() != Pt(1, 0) || West.Delta() != Pt(-1, 0) ||
		North.Delta() != Pt(0, 1) || South.Delta() != Pt(0, -1) {
		t.Error("Delta broken")
	}
	if DirNone.Delta() != Pt(0, 0) {
		t.Error("DirNone delta should be zero")
	}
	for _, d := range Dirs {
		if d.Opposite().Opposite() != d {
			t.Errorf("double Opposite of %v is not identity", d)
		}
		if d.Horizontal() == d.Vertical() {
			t.Errorf("%v must be exactly one of horizontal/vertical", d)
		}
		if !d.Perpendicular(rot90(d)) {
			t.Errorf("%v should be perpendicular to its rotation", d)
		}
		if d.Perpendicular(d) || d.Perpendicular(d.Opposite()) {
			t.Errorf("%v should not be perpendicular to itself/opposite", d)
		}
	}
	if DirNone.Opposite() != DirNone {
		t.Error("DirNone.Opposite should be DirNone")
	}
	if East.String() != "east" || DirNone.String() != "none" {
		t.Error("Dir.String broken")
	}
	if Dir(99).String() == "" {
		t.Error("out-of-range Dir.String should not be empty")
	}
}

func rot90(d Dir) Dir {
	switch d {
	case East:
		return North
	case North:
		return West
	case West:
		return South
	case South:
		return East
	}
	return DirNone
}

func TestDirTowards(t *testing.T) {
	h, v := DirTowards(Pt(0, 0), Pt(5, -3))
	if h != East || v != South {
		t.Errorf("got %v,%v want east,south", h, v)
	}
	h, v = DirTowards(Pt(5, 5), Pt(5, 5))
	if h != DirNone || v != DirNone {
		t.Errorf("same point should give none,none, got %v,%v", h, v)
	}
	h, v = DirTowards(Pt(5, 0), Pt(0, 0))
	if h != West || v != DirNone {
		t.Errorf("got %v,%v want west,none", h, v)
	}
}

func TestRectConstructionNormalizes(t *testing.T) {
	r := R(10, 20, 3, 5)
	if r != (Rect{MinX: 3, MinY: 5, MaxX: 10, MaxY: 20}) {
		t.Errorf("R did not normalize: %v", r)
	}
	if !r.IsValid() {
		t.Error("normalized rect must be valid")
	}
	if r.Width() != 7 || r.Height() != 15 || r.Area() != 105 || r.HalfPerimeter() != 22 {
		t.Error("dimension accessors broken")
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		p              Point
		inside, strict bool
	}{
		{Pt(5, 5), true, true},
		{Pt(0, 0), true, false},   // corner: on boundary
		{Pt(10, 5), true, false},  // edge: on boundary
		{Pt(11, 5), false, false}, // outside
		{Pt(0, 10), true, false},
		{Pt(-1, -1), false, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.inside {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.inside)
		}
		if got := r.ContainsStrict(c.p); got != c.strict {
			t.Errorf("ContainsStrict(%v) = %v, want %v", c.p, got, c.strict)
		}
	}
}

func TestRectIntersection(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	if !a.Intersects(b) || !a.IntersectsStrict(b) {
		t.Error("overlapping rects should intersect")
	}
	got := a.Intersection(b)
	if got != R(5, 5, 10, 10) {
		t.Errorf("Intersection = %v", got)
	}
	// Boundary contact: Intersects true, strict false.
	c := R(10, 0, 20, 10)
	if !a.Intersects(c) {
		t.Error("touching rects should Intersect")
	}
	if a.IntersectsStrict(c) {
		t.Error("touching rects should not IntersectsStrict")
	}
	// Disjoint.
	d := R(11, 11, 12, 12)
	if a.Intersects(d) {
		t.Error("disjoint rects should not intersect")
	}
	if a.Intersection(d).IsValid() {
		t.Error("intersection of disjoint rects must be invalid")
	}
}

func TestRectUnionInflateTranslate(t *testing.T) {
	a, b := R(0, 0, 1, 1), R(5, 5, 6, 6)
	if a.Union(b) != R(0, 0, 6, 6) {
		t.Error("Union broken")
	}
	if a.Inflate(2) != R(-2, -2, 3, 3) {
		t.Error("Inflate broken")
	}
	if a.Inflate(-1).IsValid() {
		t.Error("over-deflated rect should be invalid")
	}
	if a.Translate(Pt(3, 4)) != R(3, 4, 4, 5) {
		t.Error("Translate broken")
	}
	if !a.Union(b).ContainsRect(a) || !a.Union(b).ContainsRect(b) {
		t.Error("Union must contain both inputs")
	}
}

func TestRectCorners(t *testing.T) {
	c := R(1, 2, 3, 4).Corners()
	want := [4]Point{{1, 2}, {3, 2}, {3, 4}, {1, 4}}
	if c != want {
		t.Errorf("Corners = %v, want %v", c, want)
	}
}

func TestRectDistance(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		p Point
		d Coord
	}{
		{Pt(5, 5), 0},
		{Pt(0, 0), 0},
		{Pt(15, 5), 5},
		{Pt(5, -3), 3},
		{Pt(13, 14), 7},
		{Pt(-2, -2), 4},
	}
	for _, c := range cases {
		if got := r.Distance(c.p); got != c.d {
			t.Errorf("Distance(%v) = %d, want %d", c.p, got, c.d)
		}
	}
}

func TestRectCenter(t *testing.T) {
	if R(0, 0, 10, 20).Center() != Pt(5, 10) {
		t.Error("Center broken")
	}
}

func TestSegConstructPanicsOnDiagonal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("S should panic for a diagonal segment")
		}
	}()
	S(Pt(0, 0), Pt(1, 1))
}

func TestSegBasics(t *testing.T) {
	h := S(Pt(0, 5), Pt(10, 5))
	v := S(Pt(3, 0), Pt(3, 8))
	d := S(Pt(2, 2), Pt(2, 2))
	if !h.Horizontal() || h.Vertical() {
		t.Error("horizontal classification broken")
	}
	if !v.Vertical() || v.Horizontal() {
		t.Error("vertical classification broken")
	}
	if !d.Degenerate() || !d.Horizontal() || !d.Vertical() {
		t.Error("degenerate segment should be both orientations")
	}
	if h.Length() != 10 || v.Length() != 8 || d.Length() != 0 {
		t.Error("Length broken")
	}
	if h.Dir() != East || v.Dir() != North || d.Dir() != DirNone {
		t.Error("Dir broken")
	}
	if S(Pt(10, 5), Pt(0, 5)).Dir() != West {
		t.Error("reverse Dir broken")
	}
	if got := S(Pt(10, 5), Pt(0, 5)).Canon(); got.A != Pt(0, 5) {
		t.Errorf("Canon = %v", got)
	}
}

func TestSegContains(t *testing.T) {
	h := S(Pt(0, 5), Pt(10, 5))
	if !h.Contains(Pt(5, 5)) || !h.Contains(Pt(0, 5)) || !h.Contains(Pt(10, 5)) {
		t.Error("Contains should include interior and endpoints")
	}
	if h.Contains(Pt(5, 6)) || h.Contains(Pt(11, 5)) {
		t.Error("Contains should exclude off-segment points")
	}
	v := S(Pt(3, 0), Pt(3, 8))
	if !v.Contains(Pt(3, 4)) || v.Contains(Pt(4, 4)) {
		t.Error("vertical Contains broken")
	}
}

func TestSegIntersects(t *testing.T) {
	cases := []struct {
		s, t Seg
		want bool
	}{
		{S(Pt(0, 0), Pt(10, 0)), S(Pt(5, -5), Pt(5, 5)), true},  // cross
		{S(Pt(0, 0), Pt(10, 0)), S(Pt(10, 0), Pt(10, 5)), true}, // endpoint touch
		{S(Pt(0, 0), Pt(10, 0)), S(Pt(11, -5), Pt(11, 5)), false},
		{S(Pt(0, 0), Pt(10, 0)), S(Pt(5, 0), Pt(15, 0)), true},   // collinear overlap
		{S(Pt(0, 0), Pt(10, 0)), S(Pt(11, 0), Pt(15, 0)), false}, // collinear disjoint
		{S(Pt(0, 0), Pt(10, 0)), S(Pt(0, 1), Pt(10, 1)), false},  // parallel
		{S(Pt(5, 5), Pt(5, 5)), S(Pt(0, 5), Pt(10, 5)), true},    // point on segment
	}
	for _, c := range cases {
		if got := c.s.Intersects(c.t); got != c.want {
			t.Errorf("%v intersects %v = %v, want %v", c.s, c.t, got, c.want)
		}
		if got := c.t.Intersects(c.s); got != c.want {
			t.Errorf("intersection not symmetric for %v %v", c.s, c.t)
		}
	}
}

func TestCrossesRectInterior(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		s    Seg
		want bool
	}{
		{S(Pt(-5, 5), Pt(15, 5)), true},    // crosses through
		{S(Pt(-5, 0), Pt(15, 0)), false},   // runs along bottom boundary
		{S(Pt(-5, 10), Pt(15, 10)), false}, // runs along top boundary
		{S(Pt(0, -5), Pt(0, 15)), false},   // runs along left boundary
		{S(Pt(2, 2), Pt(8, 2)), true},      // entirely inside
		{S(Pt(-5, 5), Pt(0, 5)), false},    // stops at boundary
		{S(Pt(-5, 5), Pt(1, 5)), true},     // penetrates one unit
		{S(Pt(5, 11), Pt(5, 20)), false},   // outside
		{S(Pt(10, 2), Pt(10, 8)), false},   // along right boundary
		{S(Pt(5, 5), Pt(5, 5)), true},      // degenerate but strictly inside
		{S(Pt(0, 5), Pt(0, 5)), false},     // degenerate on boundary
	}
	for _, c := range cases {
		if got := c.s.CrossesRectInterior(r); got != c.want {
			t.Errorf("%v crosses %v interior = %v, want %v", c.s, r, got, c.want)
		}
	}
	// Degenerate obstacle has no interior.
	if S(Pt(-5, 5), Pt(15, 5)).CrossesRectInterior(R(0, 5, 10, 5)) {
		t.Error("degenerate rect should have no interior")
	}
}

func TestDegeneratePointSegmentInsideRect(t *testing.T) {
	// CrossesRectInterior is defined as "the segment contains at least one
	// strict-interior point of r". A zero-length segment strictly inside
	// therefore crosses; on the boundary it does not.
	r := R(0, 0, 10, 10)
	if !S(Pt(5, 5), Pt(5, 5)).CrossesRectInterior(r) {
		t.Error("interior point must register as crossing")
	}
	if S(Pt(10, 10), Pt(10, 10)).CrossesRectInterior(r) {
		t.Error("boundary point must not register as crossing")
	}
	if !r.ContainsStrict(Pt(5, 5)) {
		t.Error("consistency with ContainsStrict expected")
	}
}

func TestOverlap1D(t *testing.T) {
	cases := []struct {
		a0, a1, b0, b1, want Coord
	}{
		{0, 10, 5, 15, 5},
		{0, 10, 10, 20, 0},
		{0, 10, 11, 20, 0},
		{0, 10, 2, 8, 6},
		{10, 0, 8, 2, 6}, // unordered inputs
		{0, 0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Overlap1D(c.a0, c.a1, c.b0, c.b1); got != c.want {
			t.Errorf("Overlap1D(%d,%d,%d,%d) = %d, want %d", c.a0, c.a1, c.b0, c.b1, got, c.want)
		}
	}
}

func TestPathLengthAndBends(t *testing.T) {
	path := []Point{{0, 0}, {5, 0}, {5, 7}, {2, 7}}
	if got := PathLength(path); got != 15 {
		t.Errorf("PathLength = %d, want 15", got)
	}
	if got := Bends(path); got != 2 {
		t.Errorf("Bends = %d, want 2", got)
	}
	if Bends([]Point{{0, 0}, {5, 0}}) != 0 {
		t.Error("straight path has no bends")
	}
	if PathLength(nil) != 0 || Bends(nil) != 0 {
		t.Error("empty path should be zero")
	}
	// Zero-length legs are ignored by Bends.
	if Bends([]Point{{0, 0}, {0, 0}, {5, 0}, {5, 0}, {5, 3}}) != 1 {
		t.Error("zero-length legs must not create bends")
	}
}

func TestSimplifyPath(t *testing.T) {
	in := []Point{{0, 0}, {0, 0}, {3, 0}, {5, 0}, {5, 2}, {5, 7}, {5, 7}, {2, 7}}
	want := []Point{{0, 0}, {5, 0}, {5, 7}, {2, 7}}
	got := SimplifyPath(in)
	if len(got) != len(want) {
		t.Fatalf("SimplifyPath = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SimplifyPath = %v, want %v", got, want)
		}
	}
	if SimplifyPath(nil) != nil {
		t.Error("nil in, nil out")
	}
	single := SimplifyPath([]Point{{1, 1}})
	if len(single) != 1 || single[0] != Pt(1, 1) {
		t.Error("single point should survive")
	}
}

func TestSimplifyPreservesLengthProperty(t *testing.T) {
	// Property: simplification never changes total path length for monotone
	// staircase paths (no backtracking legs).
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		steps := int(n%20) + 2
		pts := []Point{{0, 0}}
		for i := 0; i < steps; i++ {
			last := pts[len(pts)-1]
			if r.Intn(2) == 0 {
				pts = append(pts, Pt(last.X+int64(r.Intn(5)), last.Y))
			} else {
				pts = append(pts, Pt(last.X, last.Y+int64(r.Intn(5))))
			}
		}
		return PathLength(pts) == PathLength(SimplifyPath(pts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRectPropertyIntersectionCommutes(t *testing.T) {
	f := func(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 int16) bool {
		a := R(Coord(ax0), Coord(ay0), Coord(ax1), Coord(ay1))
		b := R(Coord(bx0), Coord(by0), Coord(bx1), Coord(by1))
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		ab, ba := a.Intersection(b), b.Intersection(a)
		if ab != ba {
			return false
		}
		// Intersection valid iff Intersects.
		return ab.IsValid() == a.Intersects(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRectDistanceZeroIffContains(t *testing.T) {
	f := func(x0, y0, x1, y1, px, py int16) bool {
		r := R(Coord(x0), Coord(y0), Coord(x1), Coord(y1))
		p := Pt(Coord(px), Coord(py))
		return (r.Distance(p) == 0) == r.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMidMatchesBigQuotient holds mid to math/big's truncated quotient of
// the exact sum, on random pairs and on pairs at and near the int64 limits,
// and to Go's own (a+b)/2 wherever that sum does not overflow.
func TestMidMatchesBigQuotient(t *testing.T) {
	check := func(a, b Coord) {
		t.Helper()
		sum := new(big.Int).Add(big.NewInt(int64(a)), big.NewInt(int64(b)))
		want := new(big.Int).Quo(sum, big.NewInt(2)).Int64()
		if got := mid(a, b); int64(got) != want {
			t.Fatalf("mid(%d, %d) = %d, want %d", a, b, got, want)
		}
		if sum.IsInt64() && (a+b)/2 != mid(a, b) {
			t.Fatalf("mid(%d, %d) = %d, Go's (a+b)/2 = %d", a, b, mid(a, b), (a+b)/2)
		}
	}
	var edge []Coord
	for d := Coord(0); d < 4; d++ {
		edge = append(edge, math.MaxInt64-d, math.MinInt64+d, d, -d, math.MaxInt64/2-d, math.MinInt64/2+d)
	}
	for _, a := range edge {
		for _, b := range edge {
			check(a, b)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		a, b := Coord(r.Uint64()), Coord(r.Uint64())
		check(a, b)
		check(a>>r.Intn(63), b>>r.Intn(63)) // small magnitudes too
	}
}

// TestRectCenterNearLimits pins the midpoint of rectangles whose edge sums
// overflow: the center stays inside the rectangle.
func TestRectCenterNearLimits(t *testing.T) {
	for _, r := range []Rect{
		R(math.MaxInt64-40, math.MaxInt64-30, math.MaxInt64, math.MaxInt64-10),
		R(math.MinInt64, math.MinInt64+11, math.MinInt64+40, math.MinInt64+31),
	} {
		c := r.Center()
		if !r.Contains(c) || c.X-r.MinX != (r.MaxX-r.MinX)/2 || c.Y-r.MinY != (r.MaxY-r.MinY)/2 {
			t.Fatalf("%v: center %v is not its midpoint", r, c)
		}
	}
}
