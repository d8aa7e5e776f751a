// Package gridrouter implements the Lee–Moore grid-expansion router, the
// baseline the paper generalizes.
//
// "The most straightforward way of generating successors is to divide the
// routing surface up into a grid … If this model is used with h(n) defined
// to be 0 then it is equivalent to the Lee-Moore algorithm."
//
// The package provides both the classic standalone wavefront implementation
// (LeeMoore) and an adapter that routes the same grid through the generic
// search framework (Route), so the equivalence can be demonstrated
// experimentally: breadth-first/best-first with grid successors and h = 0
// reproduces the Lee–Moore wavefront, while adding the Manhattan heuristic
// turns it into grid A*.
package gridrouter

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/plane"
	"repro/internal/search"
)

// Grid is a rasterized routing surface. Grid point (i,j) corresponds to
// plane location origin + (i*pitch, j*pitch); a point is blocked when it
// lies strictly inside an obstacle, so wires may still run along obstacle
// boundaries as in the gridless model.
type Grid struct {
	origin  geom.Point
	pitch   geom.Coord
	w, h    int
	blocked []bool
}

// MaxGridPoints bounds rasterization size to keep accidental huge grids
// from exhausting memory — the very cost the paper's gridless approach
// eliminates.
const MaxGridPoints = 64 << 20

// FromPlane rasterizes an obstacle index at the given pitch. The paper sets
// the grid spacing equal to the minimum wire spacing; pitch 1 gives an
// exact model of integer-coordinate layouts.
func FromPlane(ix *plane.Index, pitch geom.Coord) (*Grid, error) {
	if pitch <= 0 {
		return nil, fmt.Errorf("gridrouter: pitch must be positive, got %d", pitch)
	}
	b := ix.Bounds()
	if b.Width()%pitch != 0 || b.Height()%pitch != 0 {
		return nil, fmt.Errorf("gridrouter: bounds %v not a multiple of pitch %d", b, pitch)
	}
	w := int(b.Width()/pitch) + 1
	h := int(b.Height()/pitch) + 1
	if int64(w)*int64(h) > MaxGridPoints {
		return nil, fmt.Errorf("gridrouter: grid %dx%d exceeds the %d point cap", w, h, MaxGridPoints)
	}
	g := &Grid{
		origin:  geom.Pt(b.MinX, b.MinY),
		pitch:   pitch,
		w:       w,
		h:       h,
		blocked: make([]bool, w*h),
	}
	// Rasterize each obstacle: points strictly inside are blocked.
	for ci := 0; ci < ix.NumCells(); ci++ {
		c := ix.Cell(ci)
		i0 := int((c.MinX-b.MinX)/pitch) + 1
		i1 := int((c.MaxX - b.MinX) / pitch)
		if (c.MaxX-b.MinX)%pitch == 0 {
			i1-- // MaxX itself is on the boundary, not strictly inside
		}
		j0 := int((c.MinY-b.MinY)/pitch) + 1
		j1 := int((c.MaxY - b.MinY) / pitch)
		if (c.MaxY-b.MinY)%pitch == 0 {
			j1--
		}
		for j := j0; j <= j1 && j < h; j++ {
			for i := i0; i <= i1 && i < w; i++ {
				if i >= 0 && j >= 0 {
					g.blocked[j*w+i] = true
				}
			}
		}
	}
	return g, nil
}

// Size returns the grid dimensions in points.
func (g *Grid) Size() (w, h int) { return g.w, g.h }

// Pitch returns the grid spacing.
func (g *Grid) Pitch() geom.Coord { return g.pitch }

// Points returns the total number of grid points.
func (g *Grid) Points() int { return g.w * g.h }

// Blocked reports whether grid point (i,j) is inside an obstacle.
func (g *Grid) Blocked(i, j int) bool { return g.blocked[j*g.w+i] }

// Loc converts a grid point to plane coordinates.
func (g *Grid) Loc(i, j int) geom.Point {
	return geom.Pt(g.origin.X+geom.Coord(i)*g.pitch, g.origin.Y+geom.Coord(j)*g.pitch)
}

// ErrOffGrid marks a query point that does not fall exactly on the grid.
var ErrOffGrid = errors.New("gridrouter: point not on grid")

// Snap converts a plane point to grid indices. The point must lie exactly
// on a grid point — the comparison experiments require the two routers to
// solve the identical geometric problem.
func (g *Grid) Snap(p geom.Point) (i, j int, err error) {
	dx, dy := p.X-g.origin.X, p.Y-g.origin.Y
	if dx%g.pitch != 0 || dy%g.pitch != 0 {
		return 0, 0, fmt.Errorf("%w: %v at pitch %d", ErrOffGrid, p, g.pitch)
	}
	i, j = int(dx/g.pitch), int(dy/g.pitch)
	if i < 0 || i >= g.w || j < 0 || j >= g.h {
		return 0, 0, fmt.Errorf("gridrouter: %v outside grid", p)
	}
	return i, j, nil
}

// Result reports a grid routing outcome.
type Result struct {
	// Found reports whether the target was reached.
	Found bool
	// Points is the path in plane coordinates, simplified.
	Points []geom.Point
	// Length is the path length in plane units.
	Length geom.Coord
	// Stats counts search effort. For the classic wavefront, Expanded is
	// the number of labelled grid cells.
	Stats search.Stats
}

// LeeMoore runs the classic wave expansion: label cells with their
// wavefront distance outward from the source until the target is reached,
// then backtrace. It is the reference implementation used by the
// equivalence and admissibility experiments.
func (g *Grid) LeeMoore(from, to geom.Point) (Result, error) {
	si, sj, err := g.Snap(from)
	if err != nil {
		return Result{}, err
	}
	ti, tj, err := g.Snap(to)
	if err != nil {
		return Result{}, err
	}
	if g.Blocked(si, sj) || g.Blocked(ti, tj) {
		return Result{}, fmt.Errorf("gridrouter: endpoint inside an obstacle")
	}
	src, dst := sj*g.w+si, tj*g.w+ti

	const unlabelled = -1
	dist := make([]int32, len(g.blocked))
	for i := range dist {
		dist[i] = unlabelled
	}
	dist[src] = 0
	frontier := []int32{int32(src)}
	var res Result
	res.Stats.MaxOpen = 1
	found := false
	// Wave expansion, one ring at a time (Moore's original formulation).
	for len(frontier) > 0 && !found {
		var next []int32
		for _, idx := range frontier {
			res.Stats.Expanded++
			i, j := int(idx)%g.w, int(idx)/g.w
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				ni, nj := i+d[0], j+d[1]
				if ni < 0 || ni >= g.w || nj < 0 || nj >= g.h {
					continue
				}
				nidx := nj*g.w + ni
				if g.blocked[nidx] || dist[nidx] != unlabelled {
					continue
				}
				res.Stats.Generated++
				dist[nidx] = dist[idx] + 1
				if nidx == dst {
					found = true
				}
				next = append(next, int32(nidx))
			}
		}
		frontier = next
		if len(frontier) > res.Stats.MaxOpen {
			res.Stats.MaxOpen = len(frontier)
		}
	}
	if dist[dst] == unlabelled {
		return res, nil
	}
	// Backtrace from the target following decreasing labels.
	res.Found = true
	path := []geom.Point{g.Loc(ti, tj)}
	cur := dst
	for cur != src {
		i, j := cur%g.w, cur/g.w
		stepped := false
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			ni, nj := i+d[0], j+d[1]
			if ni < 0 || ni >= g.w || nj < 0 || nj >= g.h {
				continue
			}
			nidx := nj*g.w + ni
			if dist[nidx] == dist[cur]-1 {
				cur = nidx
				path = append(path, g.Loc(ni, nj))
				stepped = true
				break
			}
		}
		if !stepped {
			return Result{}, fmt.Errorf("gridrouter: backtrace stuck at %d", cur)
		}
	}
	// Reverse to source→target order and simplify.
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	res.Points = geom.SimplifyPath(path)
	res.Length = geom.Coord(dist[dst]) * g.pitch
	return res, nil
}

// gridProblem adapts the grid to the generic search framework: grid
// successors, Manhattan heuristic (ignored by the blind strategies).
type gridProblem struct {
	g        *Grid
	src, dst int32
}

func (p *gridProblem) Start() int32        { return p.src }
func (p *gridProblem) IsGoal(s int32) bool { return s == p.dst }
func (p *gridProblem) Heuristic(s int32) search.Cost {
	g := p.g
	si, sj := int(s)%g.w, int(s)/g.w
	ti, tj := int(p.dst)%g.w, int(p.dst)/g.w
	di, dj := si-ti, sj-tj
	if di < 0 {
		di = -di
	}
	if dj < 0 {
		dj = -dj
	}
	return search.Cost(di+dj) * search.Cost(g.pitch)
}
func (p *gridProblem) Hash(s int32) uint64 { return uint64(s) }
func (p *gridProblem) Successors(s int32, out *search.Offers[int32]) {
	g := p.g
	i, j := int(s)%g.w, int(s)/g.w
	for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		ni, nj := i+d[0], j+d[1]
		if ni < 0 || ni >= g.w || nj < 0 || nj >= g.h {
			continue
		}
		nidx := int32(nj*g.w + ni)
		if g.blocked[nidx] {
			continue
		}
		out.Emit(nidx, search.Cost(g.pitch))
	}
}

// Route runs the generic search framework over the grid with the given
// strategy: BreadthFirst or BestFirst reproduce Lee–Moore (h is ignored),
// AStar gives the heuristic grid router.
func (g *Grid) Route(from, to geom.Point, strategy search.Strategy) (Result, error) {
	si, sj, err := g.Snap(from)
	if err != nil {
		return Result{}, err
	}
	ti, tj, err := g.Snap(to)
	if err != nil {
		return Result{}, err
	}
	if g.Blocked(si, sj) || g.Blocked(ti, tj) {
		return Result{}, fmt.Errorf("gridrouter: endpoint inside an obstacle")
	}
	prob := &gridProblem{g: g, src: int32(sj*g.w + si), dst: int32(tj*g.w + ti)}
	sr, err := search.Find[int32](prob, search.Options{Strategy: strategy})
	if err != nil {
		return Result{}, err
	}
	res := Result{Stats: sr.Stats}
	if !sr.Found {
		return res, nil
	}
	res.Found = true
	pts := make([]geom.Point, len(sr.Path))
	for k, idx := range sr.Path {
		pts[k] = g.Loc(int(idx)%g.w, int(idx)/g.w)
	}
	res.Points = geom.SimplifyPath(pts)
	res.Length = geom.PathLength(res.Points)
	return res, nil
}
