// Package geom provides the rectilinear geometry kernel used by every other
// package in this repository: integer coordinates, points, rectangles,
// axis-parallel segments, directions and Manhattan metrics.
//
// All coordinates are int64 "database units". The router core never uses
// floating point, so search costs are exact and tie-breaking is stable.
package geom

import "fmt"

// Coord is an integer database-unit coordinate.
type Coord = int64

// Point is a location on the routing plane.
type Point struct {
	X, Y Coord
}

// Pt is shorthand for constructing a Point.
func Pt(x, y Coord) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Manhattan returns the rectilinear (L1) distance between p and q.
func (p Point) Manhattan(q Point) Coord {
	return Abs(p.X-q.X) + Abs(p.Y-q.Y)
}

// Less orders points lexicographically (x, then y). It is the canonical
// deterministic ordering used for tie-breaking throughout the repository.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Abs returns the absolute value of c.
func Abs(c Coord) Coord {
	if c < 0 {
		return -c
	}
	return c
}

// Min returns the smaller of a and b.
func Min(a, b Coord) Coord {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Coord) Coord {
	if a > b {
		return a
	}
	return b
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi Coord) Coord {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Dir is one of the four axis directions a rectilinear route can travel.
type Dir uint8

// The four axis directions plus DirNone, which marks the start node of a
// search (no approach direction yet).
const (
	DirNone Dir = iota
	East        // +x
	West        // -x
	North       // +y
	South       // -y
)

var dirNames = [...]string{"none", "east", "west", "north", "south"}

// String implements fmt.Stringer.
func (d Dir) String() string {
	if int(d) < len(dirNames) {
		return dirNames[d]
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Delta returns the unit step for the direction.
func (d Dir) Delta() Point {
	switch d {
	case East:
		return Point{1, 0}
	case West:
		return Point{-1, 0}
	case North:
		return Point{0, 1}
	case South:
		return Point{0, -1}
	}
	return Point{}
}

// Opposite returns the direction pointing the other way. DirNone maps to
// itself.
func (d Dir) Opposite() Dir {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	return DirNone
}

// Horizontal reports whether d is East or West.
func (d Dir) Horizontal() bool { return d == East || d == West }

// Vertical reports whether d is North or South.
func (d Dir) Vertical() bool { return d == North || d == South }

// Perpendicular reports whether d and e are at right angles.
func (d Dir) Perpendicular(e Dir) bool {
	return (d.Horizontal() && e.Vertical()) || (d.Vertical() && e.Horizontal())
}

// Dirs lists the four axis directions in deterministic order.
var Dirs = [4]Dir{East, West, North, South}

// DirTowards returns the horizontal and vertical directions that lead from
// `from` towards `to`. A zero component yields DirNone for that axis.
func DirTowards(from, to Point) (h, v Dir) {
	switch {
	case to.X > from.X:
		h = East
	case to.X < from.X:
		h = West
	}
	switch {
	case to.Y > from.Y:
		v = North
	case to.Y < from.Y:
		v = South
	}
	return h, v
}

// Rect is an axis-aligned rectangle with inclusive-exclusive semantics on
// neither side: it is a closed region [MinX,MaxX] x [MinY,MaxY]. Degenerate
// rectangles (zero width or height) are permitted and represent segments or
// points; IsValid reports whether Min <= Max on both axes.
type Rect struct {
	MinX, MinY, MaxX, MaxY Coord
}

// R constructs the rectangle spanning the two corner points in any order.
func R(x0, y0, x1, y1 Coord) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d..%d,%d]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// IsValid reports whether the rectangle is non-inverted.
func (r Rect) IsValid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Width returns the x extent.
func (r Rect) Width() Coord { return r.MaxX - r.MinX }

// Height returns the y extent.
func (r Rect) Height() Coord { return r.MaxY - r.MinY }

// Area returns Width*Height.
func (r Rect) Area() Coord { return r.Width() * r.Height() }

// HalfPerimeter returns Width+Height (the HPWL of the rectangle).
func (r Rect) HalfPerimeter() Coord { return r.Width() + r.Height() }

// Center returns the midpoint of the rectangle, each coordinate by mid.
func (r Rect) Center() Point {
	return Point{mid(r.MinX, r.MaxX), mid(r.MinY, r.MaxY)}
}

// mid returns (a+b)/2 rounded toward zero, computed without overflow: it
// equals Go's (a+b)/2 wherever a+b fits in a Coord, and for every other
// pair, such as the edges of a rectangle near the int64 limits, it is the
// exact sum halved and rounded the same way.
func mid(a, b Coord) Coord {
	m := a>>1 + b>>1 + a&b&1 // floor((a+b)/2)
	if m < 0 && (a^b)&1 != 0 {
		m++ // a negative odd sum rounds up toward zero
	}
	return m
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsStrict reports whether p lies strictly inside r (not on the
// boundary). Routes may hug cell boundaries, so only strict interior points
// are blocked.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.MinX && p.X < r.MaxX && p.Y > r.MinY && p.Y < r.MaxY
}

// ContainsRect reports whether s lies entirely within r (boundaries may
// touch).
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share any point, including boundary
// contact.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// IntersectsStrict reports whether r and s share interior points (boundary
// contact does not count).
func (r Rect) IntersectsStrict(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Intersection returns the common region of r and s. The result may be
// invalid (check IsValid) when the rectangles are disjoint.
func (r Rect) Intersection(s Rect) Rect {
	return Rect{
		MinX: Max(r.MinX, s.MinX),
		MinY: Max(r.MinY, s.MinY),
		MaxX: Min(r.MaxX, s.MaxX),
		MaxY: Min(r.MaxY, s.MaxY),
	}
}

// Union returns the bounding box of r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: Min(r.MinX, s.MinX),
		MinY: Min(r.MinY, s.MinY),
		MaxX: Max(r.MaxX, s.MaxX),
		MaxY: Max(r.MaxY, s.MaxY),
	}
}

// Inflate grows the rectangle by d on every side (or shrinks it when d is
// negative; the result may become invalid).
func (r Rect) Inflate(d Coord) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// Translate shifts the rectangle by the vector p.
func (r Rect) Translate(p Point) Rect {
	return Rect{MinX: r.MinX + p.X, MinY: r.MinY + p.Y, MaxX: r.MaxX + p.X, MaxY: r.MaxY + p.Y}
}

// Corners returns the four corner points in counterclockwise order starting
// from (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// Distance returns the Manhattan distance from p to the closest point of r
// (zero when p is inside r).
func (r Rect) Distance(p Point) Coord {
	dx := Coord(0)
	if p.X < r.MinX {
		dx = r.MinX - p.X
	} else if p.X > r.MaxX {
		dx = p.X - r.MaxX
	}
	dy := Coord(0)
	if p.Y < r.MinY {
		dy = r.MinY - p.Y
	} else if p.Y > r.MaxY {
		dy = p.Y - r.MaxY
	}
	return dx + dy
}

// Seg is an axis-parallel closed line segment. A and B may appear in either
// order; Canon returns a normalized copy. A degenerate segment (A == B) is
// permitted.
type Seg struct {
	A, B Point
}

// S constructs a segment. It panics if the segment is not axis-parallel,
// because diagonal wire is never legal in this rectilinear domain and such a
// segment always indicates a programming error.
func S(a, b Point) Seg {
	if a.X != b.X && a.Y != b.Y {
		panic(fmt.Sprintf("geom: segment %v-%v is not axis-parallel", a, b))
	}
	return Seg{A: a, B: b}
}

// String implements fmt.Stringer.
func (s Seg) String() string { return fmt.Sprintf("%v-%v", s.A, s.B) }

// Horizontal reports whether the segment runs along x (degenerate segments
// report true for both Horizontal and Vertical).
func (s Seg) Horizontal() bool { return s.A.Y == s.B.Y }

// Vertical reports whether the segment runs along y.
func (s Seg) Vertical() bool { return s.A.X == s.B.X }

// Degenerate reports whether the segment is a single point.
func (s Seg) Degenerate() bool { return s.A == s.B }

// Length returns the Manhattan length of the segment.
func (s Seg) Length() Coord { return s.A.Manhattan(s.B) }

// Canon returns the segment with endpoints in lexicographic order.
func (s Seg) Canon() Seg {
	if s.B.Less(s.A) {
		return Seg{A: s.B, B: s.A}
	}
	return s
}

// Bounds returns the degenerate rectangle covering the segment.
func (s Seg) Bounds() Rect { return R(s.A.X, s.A.Y, s.B.X, s.B.Y) }

// Contains reports whether p lies on the segment.
func (s Seg) Contains(p Point) bool {
	b := s.Bounds()
	if !b.Contains(p) {
		return false
	}
	if s.Horizontal() {
		return p.Y == s.A.Y
	}
	return p.X == s.A.X
}

// Dir returns the direction of travel from A to B, or DirNone for a
// degenerate segment.
func (s Seg) Dir() Dir {
	switch {
	case s.B.X > s.A.X:
		return East
	case s.B.X < s.A.X:
		return West
	case s.B.Y > s.A.Y:
		return North
	case s.B.Y < s.A.Y:
		return South
	}
	return DirNone
}

// Intersects reports whether two axis-parallel segments share at least one
// point (including endpoint contact and collinear overlap). For axis-parallel
// segments this is exactly bounding-box intersection: each segment's box is
// degenerate along its own axis, which pins the shared coordinate.
func (s Seg) Intersects(t Seg) bool {
	return s.Bounds().Intersects(t.Bounds())
}

// CrossesRectInterior reports whether the segment passes through the strict
// interior of r. Touching or running along the boundary is allowed (routes
// hug cells), so only interior penetration counts as a collision.
func (s Seg) CrossesRectInterior(r Rect) bool {
	if r.Width() <= 0 || r.Height() <= 0 {
		return false // degenerate obstacle has no interior
	}
	if s.Horizontal() {
		y := s.A.Y
		if y <= r.MinY || y >= r.MaxY {
			return false
		}
		lo, hi := Min(s.A.X, s.B.X), Max(s.A.X, s.B.X)
		return lo < r.MaxX && hi > r.MinX
	}
	x := s.A.X
	if x <= r.MinX || x >= r.MaxX {
		return false
	}
	lo, hi := Min(s.A.Y, s.B.Y), Max(s.A.Y, s.B.Y)
	return lo < r.MaxY && hi > r.MinY
}

// Overlap1D returns the length of overlap of the closed intervals
// [a0,a1] and [b0,b1] (inputs may be unordered); zero when disjoint.
func Overlap1D(a0, a1, b0, b1 Coord) Coord {
	if a0 > a1 {
		a0, a1 = a1, a0
	}
	if b0 > b1 {
		b0, b1 = b1, b0
	}
	lo, hi := Max(a0, b0), Min(a1, b1)
	if hi < lo {
		return 0
	}
	return hi - lo
}

// PathLength returns the total Manhattan length of a polyline through the
// given points. It panics if any leg is not axis-parallel.
func PathLength(pts []Point) Coord {
	var total Coord
	for i := 1; i < len(pts); i++ {
		total += S(pts[i-1], pts[i]).Length()
	}
	return total
}

// Bends returns the number of direction changes along a rectilinear
// polyline. Zero-length legs are ignored.
func Bends(pts []Point) int {
	bends := 0
	prev := DirNone
	for i := 1; i < len(pts); i++ {
		d := S(pts[i-1], pts[i]).Dir()
		if d == DirNone {
			continue
		}
		if prev != DirNone && d != prev {
			bends++
		}
		prev = d
	}
	return bends
}

// SimplifyPath removes zero-length legs and merges collinear consecutive
// legs of a rectilinear polyline, returning a minimal vertex list with the
// same geometry. The input is unchanged.
func SimplifyPath(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	return CompactPath(append(make([]Point, 0, len(pts)), pts...))
}

// CompactPath is SimplifyPath rewriting pts in place and returning the
// shortened prefix — the allocation-free variant for callers that own the
// slice (the router's hot path).
func CompactPath(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	out := pts[:1]
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		if p == out[len(out)-1] {
			continue
		}
		if len(out) >= 2 {
			a, b := out[len(out)-2], out[len(out)-1]
			if (a.X == b.X && b.X == p.X) || (a.Y == b.Y && b.Y == p.Y) {
				out[len(out)-1] = p
				continue
			}
		}
		out = append(out, p)
	}
	return out
}
