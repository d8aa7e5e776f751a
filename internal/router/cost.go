package router

import (
	"repro/internal/geom"
	"repro/internal/plane"
	"repro/internal/search"
)

// Scale is the number of cost units per database unit of wire length. Cost
// models express length in Scale units so that small tie-breaking penalties
// (the paper's ε) can be added without ever outweighing a single unit of
// real wire length: as long as the penalties accumulated along a path stay
// below Scale, length strictly dominates the ranking, and among equal-length
// routes the penalties decide.
const Scale search.Cost = 1 << 20

// Toll is an extra cost on a ray: a segment of the ray pays Cost once it
// reaches At, a distance from the ray's origin.
type Toll struct {
	At   geom.Coord
	Cost search.Cost
}

// CostModel prices route segments one ray at a time. The search's
// successors on a ray all leave its origin in its direction, so a segment
// of length t along the ray costs
//
//	Scale*t + fixed + the Cost of every toll with At <= t
//
// where fixed and the tolls come from one Ray call for the whole ray. Both
// must be non-negative, so no segment costs less than Scale times its
// length: the A* heuristic is exactly that lower bound, so admissibility
// (hence route optimality) depends on it, and the search offers every
// successor with it as the bound on its edge cost.
type CostModel interface {
	// Directional reports whether the costs depend on the arrival
	// direction. Direction-independent models let the router collapse
	// states that differ only by approach, which shrinks the search.
	Directional() bool
	// Ray prices the ray that leaves `from` in direction d and runs to
	// coordinate stop on its travel axis, on a path that arrived at `from`
	// travelling `in` (DirNone at a path start). It returns the ray's fixed
	// cost and tolls with the ray's tolls appended, in any order.
	Ray(tolls []Toll, from geom.Point, in, d geom.Dir, stop geom.Coord) (search.Cost, []Toll)
}

// LengthCost is the paper's base model: cost is wire length alone.
type LengthCost struct{}

// Directional implements CostModel; length does not depend on approach.
func (LengthCost) Directional() bool { return false }

// Ray implements CostModel: no fixed cost, no tolls.
func (LengthCost) Ray(tolls []Toll, _ geom.Point, _, _ geom.Dir, _ geom.Coord) (search.Cost, []Toll) {
	return 0, tolls
}

// CornerCost implements the paper's inverted-corner rule (Figure 2). Two
// routes around a cell corner often have exactly the same length; the
// preferred one bends while hugging the cell, the non-preferred one bends in
// free space, creating an "inverted corner" that the detailed router then
// has to straighten. CornerCost adds a small ε to every bend made at a
// point that does not lie on any cell boundary, so among equal-length routes
// the hugging route always wins.
type CornerCost struct {
	// Ix locates cell boundaries. It must be non-nil.
	Ix *plane.Index
	// Epsilon is the penalty per free-space bend, in raw cost units. It
	// must be positive and small; the default used when zero is 1. The
	// total penalty along a route must stay below Scale for length to keep
	// strict priority, which holds for any route with fewer than ~10^6
	// penalized bends.
	Epsilon search.Cost
}

// Directional implements CostModel: detecting a bend requires the arrival
// direction.
func (c CornerCost) Directional() bool { return true }

// Ray implements CostModel: a ray that bends at `from` costs ε unless
// `from` hugs a cell, since bends on a cell boundary are the preferred
// corners.
func (c CornerCost) Ray(tolls []Toll, from geom.Point, in, d geom.Dir, _ geom.Coord) (search.Cost, []Toll) {
	if in == geom.DirNone || !in.Perpendicular(d) {
		return 0, tolls
	}
	var buf [4]int
	if len(c.Ix.BoundaryCells(from, buf[:0])) > 0 {
		return 0, tolls
	}
	if c.Epsilon <= 0 {
		return 1, tolls
	}
	return c.Epsilon, tolls
}

// RayPenalty appends to dst the tolls of the ray that leaves `from` in
// direction d and runs to coordinate stop on its travel axis, and returns
// it. Every toll's Cost must be non-negative. The congestion package prices
// the passages a ray crosses this way (the paper's "channel congestion"
// cost term).
type RayPenalty func(dst []Toll, from geom.Point, d geom.Dir, stop geom.Coord) []Toll

// PenaltyCost layers additive tolls over a base model.
type PenaltyCost struct {
	// Base is the underlying model; nil means LengthCost.
	Base CostModel
	// Penalty prices the extra tolls of a ray; nil means none.
	Penalty RayPenalty
}

// Directional implements CostModel.
func (p PenaltyCost) Directional() bool {
	if p.Base != nil {
		return p.Base.Directional()
	}
	return false
}

// Ray implements CostModel: the base model's fixed cost, and its tolls
// together with the penalty's.
func (p PenaltyCost) Ray(tolls []Toll, from geom.Point, in, d geom.Dir, stop geom.Coord) (search.Cost, []Toll) {
	var fixed search.Cost
	if p.Base != nil {
		fixed, tolls = p.Base.Ray(tolls, from, in, d, stop)
	}
	if p.Penalty != nil {
		tolls = p.Penalty(tolls, from, d, stop)
	}
	return fixed, tolls
}

// rayPrice prices the successors on one ray from a single CostModel.Ray
// evaluation: its fixed cost and its tolls sorted by At, each toll's Cost
// replaced by the sum of the costs up to it.
type rayPrice struct {
	fixed search.Cost
	tolls []Toll
}

// eval evaluates the ray through the model, reusing the toll buffer.
func (rp *rayPrice) eval(cost CostModel, from geom.Point, in, d geom.Dir, stop geom.Coord) {
	rp.fixed, rp.tolls = cost.Ray(rp.tolls[:0], from, in, d, stop)
	ts := rp.tolls
	// A ray crosses a handful of passages at most, so insertion sort.
	for i := 1; i < len(ts); i++ {
		x := ts[i]
		j := i
		for ; j > 0 && ts[j-1].At > x.At; j-- {
			ts[j] = ts[j-1]
		}
		ts[j] = x
	}
	for i := 1; i < len(ts); i++ {
		ts[i].Cost += ts[i-1].Cost
	}
}

// cost prices the segment of length t along the ray.
func (rp *rayPrice) cost(t geom.Coord) search.Cost {
	c := Scale*t + rp.fixed
	var paid search.Cost
	for _, tl := range rp.tolls {
		if tl.At > t {
			break
		}
		paid = tl.Cost
	}
	return c + paid
}
