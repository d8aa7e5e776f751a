// Package plane indexes the routing surface: the chip bounds and the
// rectangular obstacles (cells) on it.
//
// The paper keeps all points "linked to reflect their topological order in
// both x and y" so that ray tracing (Sutherland's technique) can expand the
// search frontier efficiently. This package realizes that idea with a pair
// of centered interval trees, one per axis: a ray query stabs the tree of
// the cross axis with the ray line, so only cells whose span actually
// straddles the ray are visited — obstacles behind the ray, beyond it, or
// outside its row/column band are never touched.
//
// An Index is immutable after New, which makes it safe to share across the
// per-net router goroutines. Edit derives a new index with obstacles
// removed or added (moved cells in an ECO, routed nets in the sequential
// baseline).
package plane

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/layout"
)

// Index is an immutable spatial index over rectangular obstacles.
type Index struct {
	bounds geom.Rect
	cells  []geom.Rect
	// Corner-coordinate tables: every cell contributes both edge coordinates
	// per axis, sorted by (coordinate, cell). Corridor-restricted corner
	// enumeration (ray track vertices) and boundary lookup binary-search
	// these instead of scanning all cells.
	cornersX []Corner // MinX and MaxX of every cell, sorted by (At, Cell)
	cornersY []Corner // MinY and MaxY of every cell, sorted by (At, Cell)
	// xtree stabs the cells' x-spans: PointBlocked asks "which cells contain
	// this x" in O(log n + answers) instead of a scan, and vertical rays use
	// it to visit only the cells whose x-span straddles the ray line.
	xtree intervalTree
	// ytree is the y-span twin: horizontal rays stab it with the ray's y so
	// the forward scan skips every cell outside the ray's row band — the
	// pruning that matters when many cells share an edge coordinate (macro
	// grids, standard-cell rows).
	ytree intervalTree
}

// Corner is one obstacle edge coordinate filed in a corner table: the
// coordinate of a vertical edge (an x) or a horizontal edge (a y), and the
// cell it belongs to.
type Corner struct {
	At   geom.Coord
	Cell int32
}

// New builds an index over the given obstacle rectangles within bounds.
// Obstacles are copied; degenerate rectangles are rejected.
func New(bounds geom.Rect, cells []geom.Rect) (*Index, error) {
	if !bounds.IsValid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("plane: bounds %v must have positive area", bounds)
	}
	ix := &Index{bounds: bounds, cells: append([]geom.Rect(nil), cells...)}
	for i, c := range ix.cells {
		if !c.IsValid() || c.Width() <= 0 || c.Height() <= 0 {
			return nil, fmt.Errorf("plane: obstacle %d %v must have positive area", i, c)
		}
	}
	ix.reindex()
	return ix, nil
}

// FromLayout builds an index whose obstacles are the layout's cells.
// Rectangular cells contribute their box; polygon cells contribute their
// double decomposition, so obstacle indices do not correspond one-to-one
// with layout cell ids when polygons are present.
func FromLayout(l *layout.Layout) (*Index, error) {
	ix, _, err := FromLayoutSpans(l)
	return ix, err
}

// FromLayoutSpans is FromLayout returning, additionally, the half-open
// obstacle-id range [spans[i][0], spans[i][1]) each layout cell contributed.
// The ECO layer uses the mapping to splice a moved cell's obstacles out of
// the index without rebuilding it from scratch (see Edit).
func FromLayoutSpans(l *layout.Layout) (*Index, [][2]int, error) {
	var rects []geom.Rect
	spans := make([][2]int, len(l.Cells))
	for i := range l.Cells {
		start := len(rects)
		rects = append(rects, l.Cells[i].ObstacleRects()...)
		spans[i] = [2]int{start, len(rects)}
	}
	ix, err := New(l.Bounds, rects)
	if err != nil {
		return nil, nil, err
	}
	return ix, spans, nil
}

// Edit returns a new index with the obstacles listed in removed deleted and
// the extra rectangles appended; the receiver is unchanged. Surviving
// obstacles keep their relative order but are renumbered compactly, with
// the added rectangles taking the ids after them. The returned remap
// records that renumbering authoritatively — remap[oldID] is the
// obstacle's id in the new index, or -1 for removed ids — so callers that
// track obstacle ids (the ECO layer's per-cell spans, the congestion
// passage splice) consume the numbering Edit actually applied instead of
// re-deriving it. The corner tables are not re-sorted: the survivors are
// renumbered out of the receiver's sorted tables (a monotone renumbering
// preserves the (At, Cell) order) while they merge with freshly sorted
// tables of the additions, so an edit costs O(n + m log m) table work plus
// the interval-tree rebuild — which matters because the sequential
// baseline adds each routed net's wires with Edit(nil, wires). The
// interval trees are rebuilt from the merged corner tables, with no
// comparator re-sorts.
func (ix *Index) Edit(removed []int, added []geom.Rect) (*Index, []int32, error) {
	remap := make([]int32, len(ix.cells))
	for _, id := range removed {
		if id < 0 || id >= len(ix.cells) {
			return nil, nil, fmt.Errorf("plane: removed obstacle %d out of range [0,%d)", id, len(ix.cells))
		}
		remap[id] = -1
	}
	out := &Index{bounds: ix.bounds, cells: make([]geom.Rect, 0, len(ix.cells)+len(added))}
	for i, c := range ix.cells {
		if remap[i] < 0 {
			continue
		}
		remap[i] = int32(len(out.cells))
		out.cells = append(out.cells, c)
	}
	base := len(out.cells)
	out.cells = append(out.cells, added...)
	for i := base; i < len(out.cells); i++ {
		if c := out.cells[i]; !c.IsValid() || c.Width() <= 0 || c.Height() <= 0 {
			return nil, nil, fmt.Errorf("plane: obstacle %d %v must have positive area", i-base, c)
		}
	}
	sub := &Index{cells: out.cells} // ids base.. index the combined slice
	sub.buildCorners(base, len(out.cells))
	out.cornersX = mergeCorners(ix.cornersX, remap, sub.cornersX)
	out.cornersY = mergeCorners(ix.cornersY, remap, sub.cornersY)
	out.xtree = buildIntervalTree(xSpans(out.cells), out.cornersX)
	out.ytree = buildIntervalTree(ySpans(out.cells), out.cornersY)
	return out, remap, nil
}

// reindex rebuilds every derived structure from scratch.
func (ix *Index) reindex() {
	ix.buildCorners(0, len(ix.cells))
	ix.xtree = buildIntervalTree(xSpans(ix.cells), ix.cornersX)
	ix.ytree = buildIntervalTree(ySpans(ix.cells), ix.cornersY)
}

// buildCorners builds the two corner tables for the cell id range [lo, hi).
// New indexes the whole slice; Edit indexes just the appended additions
// and merges.
func (ix *Index) buildCorners(lo, hi int) {
	n := hi - lo
	c := ix.cells
	ix.cornersX = make([]Corner, 0, 2*n)
	ix.cornersY = make([]Corner, 0, 2*n)
	for i := lo; i < hi; i++ {
		ix.cornersX = append(ix.cornersX,
			Corner{At: c[i].MinX, Cell: int32(i)}, Corner{At: c[i].MaxX, Cell: int32(i)})
		ix.cornersY = append(ix.cornersY,
			Corner{At: c[i].MinY, Cell: int32(i)}, Corner{At: c[i].MaxY, Cell: int32(i)})
	}
	sort.Slice(ix.cornersX, func(a, b int) bool { return cornerLess(ix.cornersX[a], ix.cornersX[b]) })
	sort.Slice(ix.cornersY, func(a, b int) bool { return cornerLess(ix.cornersY[a], ix.cornersY[b]) })
}

func cornerLess(a, b Corner) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Cell < b.Cell
}

// mergeCorners merges a receiver's corner table, renumbered through remap
// (entries remapped to -1 are dropped), with the additions' table; both
// are sorted by (At, Cell), and the added ids follow every survivor's.
func mergeCorners(tab []Corner, remap []int32, add []Corner) []Corner {
	out := make([]Corner, 0, len(tab)+len(add))
	j := 0
	for _, c := range tab {
		if c.Cell = remap[c.Cell]; c.Cell < 0 {
			continue
		}
		for ; j < len(add) && cornerLess(add[j], c); j++ {
			out = append(out, add[j])
		}
		out = append(out, c)
	}
	return append(out, add[j:]...)
}

// Bounds returns the routing area.
func (ix *Index) Bounds() geom.Rect { return ix.bounds }

// NumCells returns the obstacle count.
func (ix *Index) NumCells() int { return len(ix.cells) }

// Cell returns the i'th obstacle rectangle.
func (ix *Index) Cell(i int) geom.Rect { return ix.cells[i] }

// Cells returns a copy of all obstacle rectangles.
func (ix *Index) Cells() []geom.Rect { return append([]geom.Rect(nil), ix.cells...) }

// PointBlocked reports whether p lies strictly inside an obstacle, and which
// one (the lowest-indexed one when several overlap). Boundary points are
// legal routing locations. The query stabs the x-interval tree and filters
// the survivors by y-span: O(log n + cells overlapping p.X).
func (ix *Index) PointBlocked(p geom.Point) (cell int, blocked bool) {
	best := int32(-1)
	ix.xtree.stab(p.X, func(ci int32) {
		c := &ix.cells[ci]
		if c.MinY < p.Y && p.Y < c.MaxY && (best < 0 || ci < best) {
			best = ci
		}
	})
	if best < 0 {
		return -1, false
	}
	return int(best), true
}

// RectIntersects reports whether any obstacle other than the excluded ids
// strictly intersects r — interiors overlap; boundary contact does not
// count, matching geom.Rect.IntersectsStrict. The query stabs the interval
// tree of r's narrower axis with the rect's span on that axis and filters
// the survivors on the other axis, so it costs O(log n + obstacles
// overlapping the narrow span) with an early exit on the first hit. It is
// the intrusion test behind congestion passage extraction: "does any third
// cell poke into this corridor".
func (ix *Index) RectIntersects(r geom.Rect, exclude ...int) bool {
	if !r.IsValid() || r.Width() <= 0 || r.Height() <= 0 {
		return false // an empty interior intersects nothing
	}
	hit := func(ci int32) bool {
		c := &ix.cells[ci]
		if c.MinY >= r.MaxY || c.MaxY <= r.MinY || c.MinX >= r.MaxX || c.MaxX <= r.MinX {
			return false
		}
		for _, e := range exclude {
			if int(ci) == e {
				return false
			}
		}
		return true
	}
	if r.Width() <= r.Height() {
		return ix.xtree.overlapUntil(r.MinX, r.MaxX, hit)
	}
	return ix.ytree.overlapUntil(r.MinY, r.MaxY, hit)
}

// AppendXOverlapping appends to dst the ids of every obstacle whose x-span
// strictly overlaps the open interval (lo, hi) — MinX < hi && MaxX > lo —
// and returns the extended slice. Each id appears at most once, in
// unspecified order. The congestion sweep uses it to enumerate the cells
// alive inside a sweep window.
func (ix *Index) AppendXOverlapping(dst []int32, lo, hi geom.Coord) []int32 {
	ix.xtree.overlapUntil(lo, hi, func(ci int32) bool {
		dst = append(dst, ci)
		return false
	})
	return dst
}

// AppendYOverlapping is AppendXOverlapping for y-spans.
func (ix *Index) AppendYOverlapping(dst []int32, lo, hi geom.Coord) []int32 {
	ix.ytree.overlapUntil(lo, hi, func(ci int32) bool {
		dst = append(dst, ci)
		return false
	})
	return dst
}

// InBounds reports whether p lies within the routing area (boundary
// included).
func (ix *Index) InBounds(p geom.Point) bool { return ix.bounds.Contains(p) }

// BoundaryCells appends to dst the indices of every obstacle whose boundary
// contains p, in ascending cell order, and returns the extended slice. The
// search's boundary-hugging rule expands along the edges of exactly these
// cells. A boundary point lies on a vertical edge (its x is a corner-table
// x) or a horizontal edge (its y is a corner-table y), so both binary
// searches together enumerate every candidate without a scan.
func (ix *Index) BoundaryCells(p geom.Point, dst []int) []int {
	start := len(dst)
	i := sort.Search(len(ix.cornersX), func(k int) bool { return ix.cornersX[k].At >= p.X })
	for ; i < len(ix.cornersX) && ix.cornersX[i].At == p.X; i++ {
		ci := ix.cornersX[i].Cell
		if c := &ix.cells[ci]; c.MinY <= p.Y && p.Y <= c.MaxY {
			dst = append(dst, int(ci))
		}
	}
	j := sort.Search(len(ix.cornersY), func(k int) bool { return ix.cornersY[k].At >= p.Y })
	for ; j < len(ix.cornersY) && ix.cornersY[j].At == p.Y; j++ {
		ci := ix.cornersY[j].Cell
		c := &ix.cells[ci]
		if c.MinX > p.X || p.X > c.MaxX {
			continue
		}
		dup := false // a corner cell already matched through its vertical edge
		for _, e := range dst[start:] {
			if e == int(ci) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, int(ci))
		}
	}
	// Insertion sort: the result is tiny and must match the ascending cell
	// order the naive scan produced (successor emission order is part of the
	// router's determinism contract).
	s := dst[start:]
	for a := 1; a < len(s); a++ {
		for b := a; b > 0 && s[b] < s[b-1]; b-- {
			s[b], s[b-1] = s[b-1], s[b]
		}
	}
	return dst
}

// AppendCornersX appends to dst every corner table entry whose x lies
// strictly inside (lo, hi) — the candidate turn coordinates for a horizontal
// ray corridor — and returns the extended slice. Entries arrive in (x, cell)
// order.
func (ix *Index) AppendCornersX(dst []Corner, lo, hi geom.Coord) []Corner {
	return appendCornerRange(dst, ix.cornersX, lo, hi)
}

// AppendCornersY is AppendCornersX for horizontal edge coordinates (vertical
// ray corridors).
func (ix *Index) AppendCornersY(dst []Corner, lo, hi geom.Coord) []Corner {
	return appendCornerRange(dst, ix.cornersY, lo, hi)
}

// appendCornerRange binary-searches the table for the open interval (lo, hi).
func appendCornerRange(dst []Corner, table []Corner, lo, hi geom.Coord) []Corner {
	i := sort.Search(len(table), func(k int) bool { return table[k].At > lo })
	for ; i < len(table) && table[i].At < hi; i++ {
		dst = append(dst, table[i])
	}
	return dst
}

// Hit describes the outcome of a ray query.
type Hit struct {
	// Stop is the farthest coordinate along the travel axis that the ray
	// reaches without entering an obstacle interior. When Blocked it is the
	// near-edge coordinate of the blocking cell; otherwise it is the query
	// limit.
	Stop geom.Coord
	// Cell is the blocking obstacle index, or -1.
	Cell int
	// Blocked reports whether an obstacle stopped the ray before the limit.
	Blocked bool
}

// RayHit casts a ray from `from` in direction d and reports where it must
// stop. limit is the farthest coordinate of interest along the travel axis
// (x for East/West, y for North/South); it is clamped to the routing
// bounds. A ray sliding along an obstacle boundary is not blocked — only
// interior penetration stops it, because routes are allowed to hug cells.
//
// The query stabs the cross-axis interval tree with the ray line: only the
// cells whose span strictly contains the ray's fixed coordinate are visited
// at all, so a ray running down a corridor between macro rows touches
// O(log n) nodes instead of scanning every cell ahead of it in the sorted
// edge order (the pre-tree behaviour, which degraded badly when many cells
// shared an edge coordinate).
func (ix *Index) RayHit(from geom.Point, d geom.Dir, limit geom.Coord) Hit {
	c := ix.cells
	switch d {
	case geom.East:
		limit = geom.Min(limit, ix.bounds.MaxX)
		best := Hit{Stop: limit, Cell: -1}
		// Candidates: cells in the ray's row band whose left edge is at or
		// beyond the origin. (A left edge exactly at the origin blocks
		// immediately.)
		ix.ytree.stab(from.Y, func(ci int32) {
			if x := c[ci].MinX; x >= from.X && x < best.Stop {
				best = Hit{Stop: x, Cell: int(ci), Blocked: true}
			}
		})
		return best
	case geom.West:
		limit = geom.Max(limit, ix.bounds.MinX)
		best := Hit{Stop: limit, Cell: -1}
		ix.ytree.stab(from.Y, func(ci int32) {
			if x := c[ci].MaxX; x <= from.X && x > best.Stop {
				best = Hit{Stop: x, Cell: int(ci), Blocked: true}
			}
		})
		return best
	case geom.North:
		limit = geom.Min(limit, ix.bounds.MaxY)
		best := Hit{Stop: limit, Cell: -1}
		ix.xtree.stab(from.X, func(ci int32) {
			if y := c[ci].MinY; y >= from.Y && y < best.Stop {
				best = Hit{Stop: y, Cell: int(ci), Blocked: true}
			}
		})
		return best
	case geom.South:
		limit = geom.Max(limit, ix.bounds.MinY)
		best := Hit{Stop: limit, Cell: -1}
		ix.xtree.stab(from.X, func(ci int32) {
			if y := c[ci].MaxY; y <= from.Y && y > best.Stop {
				best = Hit{Stop: y, Cell: int(ci), Blocked: true}
			}
		})
		return best
	}
	return Hit{Stop: axisCoord(from, d), Cell: -1}
}

// FreeExtent returns, in one interval-tree stab, the closed stretch [lo, hi]
// of the axis-parallel line through p that a wire from p can reach without
// crossing an obstacle interior. With vertical set the line is x = p.X and
// the segment from p to (p.X, y) is free exactly when lo <= y <= hi;
// otherwise the line is y = p.Y and the bounds are x coordinates. hi is the
// near edge of the first obstacle the line enters beyond p and lo the one
// before p; a side with no obstacle is unbounded (math.MaxInt64 /
// math.MinInt64), since the routing bounds are not applied. When p lies
// strictly inside an obstacle, hi < p < lo and no segment from p is free.
//
// For segments inside the routing bounds the answer is SegBlocked's,
// walked in either direction, for every target at once: the obstacles
// that can block a segment on the line are exactly the ones whose span
// strictly contains the line's fixed coordinate, and such an obstacle
// blocks the segment from p to t (say t > p) exactly when it reaches
// beyond p and starts before t — its interior overlaps the open stretch
// (p, t) or contains p. No disjointness is assumed.
func (ix *Index) FreeExtent(p geom.Point, vertical bool) (lo, hi geom.Coord) {
	lo, hi = math.MinInt64, math.MaxInt64
	c := ix.cells
	if vertical {
		ix.xtree.stab(p.X, func(ci int32) {
			r := &c[ci]
			if r.MaxY > p.Y && r.MinY < hi {
				hi = r.MinY
			}
			if r.MinY < p.Y && r.MaxY > lo {
				lo = r.MaxY
			}
		})
		return lo, hi
	}
	ix.ytree.stab(p.Y, func(ci int32) {
		r := &c[ci]
		if r.MaxX > p.X && r.MinX < hi {
			hi = r.MinX
		}
		if r.MinX < p.X && r.MaxX > lo {
			lo = r.MaxX
		}
	})
	return lo, hi
}

// axisCoord returns the coordinate of p along the travel axis of d.
func axisCoord(p geom.Point, d geom.Dir) geom.Coord {
	if d.Horizontal() {
		return p.X
	}
	return p.Y
}

// SegBlocked reports whether the axis-parallel segment passes through any
// obstacle interior, and the first obstacle hit walking from s.A to s.B.
func (ix *Index) SegBlocked(s geom.Seg) (cell int, blocked bool) {
	if c, b := ix.PointBlocked(s.A); b {
		return c, true // start already strictly inside an obstacle
	}
	if s.Degenerate() {
		return -1, false
	}
	d := s.Dir()
	var target geom.Coord
	if d.Horizontal() {
		target = s.B.X
	} else {
		target = s.B.Y
	}
	h := ix.RayHit(s.A, d, target)
	if !h.Blocked {
		return -1, false
	}
	// Blocked only if the obstacle edge is strictly before the segment end
	// (reaching exactly the near edge is legal: the wire stops there).
	switch d {
	case geom.East, geom.North:
		if h.Stop < target {
			return h.Cell, true
		}
	case geom.West, geom.South:
		if h.Stop > target {
			return h.Cell, true
		}
	}
	return -1, false
}

// PathBlocked checks every leg of a rectilinear polyline and returns the
// first blocking obstacle, if any.
func (ix *Index) PathBlocked(pts []geom.Point) (cell int, blocked bool) {
	for i := 1; i < len(pts); i++ {
		if c, b := ix.SegBlocked(geom.S(pts[i-1], pts[i])); b {
			return c, true
		}
	}
	return -1, false
}
