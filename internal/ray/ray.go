// Package ray generates search successors on the gridless routing plane —
// the paper's replacement for grid expansion.
//
// The paper's requirements for the successor generator are that it
//
//	(1) extends any path as far toward the goal as is feasible in x and y, and
//	(2) hugs cells (obstacles) as they are encountered.
//
// Requirement (1) is realized by casting a ray toward the goal along each
// axis; the ray stops at the goal-aligned coordinate, at the first obstacle
// boundary, or at the routing bounds (Sutherland-style ray tracing via
// plane.Index). Requirement (2) is realized at expansion time: whenever the
// expanded point lies on an obstacle boundary, slides along every incident
// obstacle edge toward the edge's corners are emitted (each slide is itself
// a ray, so another obstacle can stop it early).
//
// Because every emitted coordinate is an obstacle-edge coordinate, a
// goal/pin coordinate, or a routing bound, the reachable state space is a
// finite subset of the Hanan-style grid induced by those event coordinates,
// so the search always terminates.
package ray

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/plane"
)

// Mode selects how aggressively successors are generated.
type Mode uint8

const (
	// Directed is the paper's generator: goal-ward rays plus boundary
	// hugging. It produces remarkably few nodes (Figure 1).
	Directed Mode = iota
	// AllDirs casts rays in all four directions from every node in addition
	// to boundary hugging. It produces a denser graph; the ablation
	// experiments compare it against Directed.
	AllDirs
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Directed {
		return "directed"
	}
	return "all-dirs"
}

// Gen generates successors over a plane index. It is stateless apart from
// configuration and safe for concurrent use.
type Gen struct {
	// Ix is the obstacle index. It must be non-nil.
	Ix *plane.Index
	// Mode selects the generation strategy. The zero value is Directed.
	Mode Mode
}

// Sink receives the successors of one search node, ray by ray.
type Sink interface {
	// Ray announces a ray cast from `from` in direction d that stopped at
	// coordinate stop on its travel axis. Every Point until the next Ray
	// lies on it, strictly past `from`.
	Ray(from geom.Point, d geom.Dir, stop geom.Coord)
	// Point is one successor on the current ray, standing for n successors:
	// 1 for the ray's stop point, and for a corner projection the number of
	// visible obstacle corners on its corner line.
	Point(next geom.Point, n int)
}

// Successors hands sink every successor point of `at` when searching toward
// `guide`, ray by ray: each ray is announced before its points, its stop
// point first and then its corner projections. A corner line is emitted
// once per ray however many corners it carries, at its first position in
// the ray's (cell, coordinate) order (see cornerProjections); the point is
// the same for every corner on the line, so a per-corner emission would
// only repeat it. guide supplies the goal-aligned ray limits; for
// multi-goal searches the caller passes the nearest goal point.
func (g *Gen) Successors(at, guide geom.Point, sink Sink) {
	b := g.Ix.Bounds()
	point := func(next geom.Point, _ geom.Dir, n int) { sink.Point(next, n) }

	// emitRay casts one ray, emitting the final stop point plus an escape
	// point at every visible obstacle-corner line along the ray (see
	// cornerProjections) — the track-graph vertices a shortest route may
	// need to turn at.
	emitRay := func(d geom.Dir, limit geom.Coord) {
		h := g.Ix.RayHit(at, d, limit)
		var next geom.Point
		if d.Horizontal() {
			next = geom.Pt(h.Stop, at.Y)
		} else {
			next = geom.Pt(at.X, h.Stop)
		}
		if next != at {
			sink.Ray(at, d, h.Stop)
			sink.Point(next, 1)
			g.cornerProjections(at, d, h.Stop, point)
		}
	}

	// Requirement (1): goal-ward rays, limited at goal alignment.
	hd, vd := geom.DirTowards(at, guide)
	if hd != geom.DirNone {
		emitRay(hd, guide.X)
	}
	if vd != geom.DirNone {
		emitRay(vd, guide.Y)
	}

	if g.Mode == AllDirs {
		// Rays in the remaining directions run to the routing bounds.
		for _, d := range geom.Dirs {
			if d == hd || d == vd {
				continue
			}
			switch d {
			case geom.East:
				emitRay(d, b.MaxX)
			case geom.West:
				emitRay(d, b.MinX)
			case geom.North:
				emitRay(d, b.MaxY)
			case geom.South:
				emitRay(d, b.MinY)
			}
		}
	}

	g.hug(at, emitRay)
}

// cornerProjections emits an escape point at every visible perpendicular
// projection of an obstacle corner onto the ray just cast from `at` in
// direction d (which stopped at coordinate stop along the travel axis).
//
// These are the vertices of the classical track graph: a shortest
// rectilinear path among rectangular obstacles can always be deformed so
// that each of its segments lies on a maximal free line through an obstacle
// corner (or through the start/goal). A route travelling along this ray may
// therefore need to turn exactly where such a corner line crosses it. A
// projection counts only when the perpendicular segment from the corner to
// the ray is unobstructed — otherwise the crossing lies on a different
// maximal free segment of the same line and is not a track vertex.
//
// Every visible corner on one corner line projects to the same point, so
// each line is emitted once, with n the number of its visible corners. The
// lines are emitted in the order of their first visible corner in (cell,
// coordinate) order — the order a scan over every cell produces, which the
// search's deterministic tie-breaking depends on. A per-corner emission
// would add only repeats of a line's point after its first, which the
// search rejects as no better than the first.
func (g *Gen) cornerProjections(at geom.Point, d geom.Dir, stop geom.Coord, emit func(geom.Point, geom.Dir, int)) {
	horiz := d.Horizontal()
	// along is at's coordinate on the travel axis, across its coordinate on
	// the other one: the ray line.
	along, across := at.X, at.Y
	if !horiz {
		along, across = at.Y, at.X
	}
	lo, hi := geom.Min(along, stop), geom.Max(along, stop)
	// Candidate corners come from the index's corner tables restricted to the
	// ray's open corridor (lo, hi) — O(log n + candidates) instead of a scan
	// over every cell — in (coordinate, cell) order.
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if horiz {
		sc.cands = g.Ix.AppendCornersX(sc.cands[:0], lo, hi)
	} else {
		sc.cands = g.Ix.AppendCornersY(sc.cands[:0], lo, hi)
	}
	cands := sc.cands
	point := func(c geom.Coord) geom.Point {
		if horiz {
			return geom.Pt(c, across)
		}
		return geom.Pt(across, c)
	}
	// Collect the visible corner lines. Every candidate on one corner line —
	// a whole column or row of cells shares it on a macro grid — is judged
	// by a single FreeExtent stab from the line's crossing with the ray: the
	// corner at cross coordinate cc is visible exactly when the free stretch
	// [flo, fhi] reaches it, which is SegBlocked's answer for the
	// corner-to-ray segment on any index, overlapping or not (see
	// FreeExtent; the ray line lies inside the routing bounds because every
	// search state does). A line's candidates arrive in cell order, so its
	// first visible one names the cell the line sorts by.
	lines := sc.lines[:0]
	line := lo // no candidate lies on lo, so the first one always stabs
	var flo, fhi geom.Coord
	for _, cd := range cands {
		c := g.Ix.Cell(int(cd.Cell))
		cmin, cmax := c.MinY, c.MaxY
		if !horiz {
			cmin, cmax = c.MinX, c.MaxX
		}
		// Nearest corner row of this cell relative to the ray line. A ray
		// line strictly inside the cell's span cannot cross its corner
		// tracks without having been blocked first.
		var cc geom.Coord
		switch {
		case across <= cmin:
			cc = cmin
		case across >= cmax:
			cc = cmax
		default:
			continue
		}
		if cd.At != line {
			line = cd.At
			flo, fhi = g.Ix.FreeExtent(point(line), horiz)
		}
		if flo <= cc && cc <= fhi {
			if k := len(lines) - 1; k >= 0 && lines[k].at == cd.At {
				lines[k].n++
			} else {
				lines = append(lines, cornerLine{at: cd.At, cell: cd.Cell, n: 1})
			}
		}
	}
	sc.lines = lines
	sortByCell(lines)
	for _, ln := range lines {
		emit(point(ln.at), d, int(ln.n))
	}
}

// cornerLine is one visible corner line of a ray: its coordinate along the
// ray, the lowest-numbered cell with a visible corner on it, and the number
// of cells with one.
type cornerLine struct {
	at   geom.Coord
	cell int32
	n    int32
}

// scratch holds the buffers of one cornerProjections call. On a macro grid
// a ray that finds corners at all finds dozens to thousands (one crossing
// macro channels), so the buffers are recycled through a pool rather than
// allocated per call, which keeps Gen stateless and safe for concurrent
// use.
type scratch struct {
	cands []plane.Corner
	lines []cornerLine
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sortByCell sorts corner lines into (cell, coordinate) order. The lines
// arrive in coordinate order, and the two lines one cell can name have
// distinct coordinates.
func sortByCell(s []cornerLine) {
	slices.SortFunc(s, func(a, b cornerLine) int {
		if a.cell != b.cell {
			return cmp.Compare(a.cell, b.cell)
		}
		return cmp.Compare(a.at, b.at)
	})
}

// hug emits slides along every obstacle edge containing `at`.
func (g *Gen) hug(at geom.Point, emitRay func(geom.Dir, geom.Coord)) {
	// Requirement (2): hug every obstacle whose boundary contains `at`.
	var buf [4]int
	for _, ci := range g.Ix.BoundaryCells(at, buf[:0]) {
		c := g.Ix.Cell(ci)
		// Slide along each incident edge toward the edge corners. A point
		// on a horizontal edge (y == MinY or MaxY, x within span) slides
		// east/west; a point on a vertical edge slides north/south; a
		// corner lies on two edges and slides along both.
		onHorizEdge := (at.Y == c.MinY || at.Y == c.MaxY) && at.X >= c.MinX && at.X <= c.MaxX
		onVertEdge := (at.X == c.MinX || at.X == c.MaxX) && at.Y >= c.MinY && at.Y <= c.MaxY
		if onHorizEdge {
			if at.X > c.MinX {
				emitRay(geom.West, c.MinX)
			}
			if at.X < c.MaxX {
				emitRay(geom.East, c.MaxX)
			}
		}
		if onVertEdge {
			if at.Y > c.MinY {
				emitRay(geom.South, c.MinY)
			}
			if at.Y < c.MaxY {
				emitRay(geom.North, c.MaxY)
			}
		}
	}
}
