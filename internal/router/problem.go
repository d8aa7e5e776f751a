package router

import (
	"repro/internal/boxtree"
	"repro/internal/geom"
	"repro/internal/ray"
	"repro/internal/search"
)

// State identifies a search node: a point on the routing plane plus the
// direction the route was travelling when it arrived there. For
// direction-independent cost models the router collapses In to DirNone so
// each point is a single node, exactly the paper's formulation; directional
// models (the ε corner rule) need the approach direction to price bends.
//
// The zero Point with virtual=true is the synthetic multi-source start.
type State struct {
	At      geom.Point
	In      geom.Dir
	virtual bool
}

// targetSet is the goal of a connection search: a set of points and
// segments. A plain two-pin route has a single target point; a Steiner
// attachment targets the whole partially-built tree, segments included —
// the paper's modification of the spanning-tree algorithm.
//
// On multi-terminal nets the partial tree reaches hundreds of segments, and
// nearest/crossing run once per generated node, so the queries are answered
// from a boxtree.Tree that files every target point and segment as its
// bounding box. RouteNet grows one shared set as the tree accretes
// (addPoints/addSegs); prepare, which RouteNet calls before a round takes
// its candidates' bounds and routeConnection before every search, rebuilds
// the tree when the set has changed since the last build — once per
// Steiner round. The tree keeps its buffers across builds, so a set
// recycled through netScratchPool stops allocating once warm.
type targetSet struct {
	points []geom.Point
	segs   []geom.Seg
	tree   boxtree.Tree // points then segs, by their boxes
	built  bool         // tree files points and segs
}

// reset readies a recycled set for a new net, keeping capacity.
func (t *targetSet) reset() {
	t.points = t.points[:0]
	t.segs = t.segs[:0]
	t.built = false
}

// addPoints appends target points; the tree catches up on next prepare.
func (t *targetSet) addPoints(pts ...geom.Point) {
	t.points = append(t.points, pts...)
	t.built = false
}

// addSegs appends target segments; the tree catches up on next prepare.
func (t *targetSet) addSegs(segs ...geom.Seg) {
	t.segs = append(t.segs, segs...)
	t.built = false
}

// prepare rebuilds the tree if the set changed since the last build.
// routeConnection calls it before every search; free when nothing changed.
func (t *targetSet) prepare() {
	if t.built {
		return
	}
	np := len(t.points)
	t.tree.Build(np+len(t.segs), func(i int) geom.Rect {
		if i < np {
			q := t.points[i]
			return geom.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X, MaxY: q.Y}
		}
		return t.segs[i-np].Bounds()
	})
	t.built = true
}

// contains reports whether p is on the target set.
func (t *targetSet) contains(p geom.Point) bool { return t.tree.Contains(p) }

// nearest returns the closest point of the target set to p and its
// Manhattan distance, or a negative distance for an empty set. The distance
// is an admissible heuristic; the point guides ray generation. Each point
// contributes itself and each segment its clamp point; distance ties break
// toward the lexicographically smaller point, which makes the answer a pure
// function of the set.
func (t *targetSet) nearest(p geom.Point) (geom.Point, geom.Coord) { return t.tree.Nearest(p) }

// crossing returns the point where the directed travel segment from→to
// first meets the target set, if it does. Rays are cast toward the nearest
// target, but a travel segment can also cross a *different* target segment
// transversally; detecting that crossing early is what lets a route attach
// to the middle of an existing tree edge.
//
// An element meets the travel when its box meets the travel's, and then its
// first contact lies on the travel at the box's distance from `from`, so the
// answer is the met element nearest `from`: distinct candidates lie at
// distinct distances and the result does not depend on visiting order.
func (t *targetSet) crossing(from, to geom.Point) (geom.Point, bool) {
	if from == to {
		// Degenerate travel: the only possible contact is the point itself.
		if t.contains(from) {
			return from, true
		}
		return geom.Point{}, false
	}
	travel := geom.S(from, to)
	d, ok := t.tree.MeetingDist(travel.Bounds(), from)
	if !ok {
		return geom.Point{}, false
	}
	step := travel.Dir().Delta()
	return geom.Pt(from.X+step.X*d, from.Y+step.Y*d), true
}

// connProblem adapts a connection query to the generic search framework.
// It is the ray generator's Sink during an expansion: cur and out are the
// expanded state and the search's Offers, and ray describes the ray the
// generator announced last.
type connProblem struct {
	gen        ray.Gen
	cost       CostModel
	sources    []geom.Point
	targets    *targetSet
	onExpand   func(geom.Point, search.Cost)
	onGenerate func(geom.Point, search.Cost)

	directional bool
	cur         State
	out         *search.Offers[State]
	ray         struct {
		d    geom.Dir
		stop geom.Coord
		// cross is the distance from cur to the ray's first contact with
		// the target set, -1 when it has none.
		cross geom.Coord
		// priced reports whether price holds this ray's evaluation.
		priced bool
		price  rayPrice
	}
	// collapsed counts the successors the generator folded into a corner
	// line's single emission (see Point); routeConnection adds it to the
	// search's Generated.
	collapsed int
}

var (
	_ search.Problem[State]       = (*connProblem)(nil)
	_ search.TracedProblem[State] = (*connProblem)(nil)
	_ ray.Sink                    = (*connProblem)(nil)
)

// stateTracer forwards search events to the router's callbacks.
type stateTracer struct {
	onExpand   func(geom.Point, search.Cost)
	onGenerate func(geom.Point, search.Cost)
}

// Expanded implements search.Tracer.
func (t stateTracer) Expanded(s State, g search.Cost) {
	if t.onExpand != nil && !s.virtual {
		t.onExpand(s.At, g)
	}
}

// Generated implements search.Tracer.
func (t stateTracer) Generated(s State, g search.Cost) {
	if t.onGenerate != nil && !s.virtual {
		t.onGenerate(s.At, g)
	}
}

// Tracer implements search.TracedProblem.
func (p *connProblem) Tracer() search.Tracer[State] {
	if p.onExpand == nil && p.onGenerate == nil {
		return nil
	}
	return stateTracer{onExpand: p.onExpand, onGenerate: p.onGenerate}
}

// Start implements search.Problem with the synthetic multi-source node.
func (p *connProblem) Start() State { return State{virtual: true} }

// IsGoal implements search.Problem.
func (p *connProblem) IsGoal(s State) bool {
	return !s.virtual && p.targets.contains(s.At)
}

// Heuristic implements search.Problem: Scale times the Manhattan distance
// to the nearest target, the paper's admissible lower bound. The virtual
// start gets 0, trivially admissible.
func (p *connProblem) Heuristic(s State) search.Cost {
	if s.virtual {
		return 0
	}
	_, d := p.targets.nearest(s.At)
	if d < 0 {
		return 0
	}
	return Scale * d
}

// Hash implements search.Problem.
func (p *connProblem) Hash(s State) uint64 {
	h := (uint64(s.At.X)*0x9E3779B97F4A7C15 ^ uint64(s.At.Y)) * 0xBF58476D1CE4E5B9
	h ^= uint64(s.In) << 1
	if s.virtual {
		h ^= 1
	}
	return h
}

// Successors implements search.Problem.
func (p *connProblem) Successors(s State, out *search.Offers[State]) {
	if s.virtual {
		// Dedup the (tiny) source set without a per-query map.
		for i, src := range p.sources {
			dup := false
			for _, prev := range p.sources[:i] {
				if prev == src {
					dup = true
					break
				}
			}
			if !dup {
				out.Emit(State{At: src}, 0)
			}
		}
		return
	}
	p.cur = s
	p.out = out
	guide, _ := p.targets.nearest(s.At)
	p.gen.Successors(s.At, guide, p)
}

// Ray implements ray.Sink. The ray's travel can meet the target set before
// its stop, and the first contact of a segment along it is the ray's first
// contact when the segment reaches it: one crossing query per ray serves
// every successor on it. The cost model is evaluated later, at the first
// successor the search keeps.
func (p *connProblem) Ray(from geom.Point, d geom.Dir, stop geom.Coord) {
	r := &p.ray
	r.d, r.stop, r.priced, r.cross = d, stop, false, -1
	to := geom.Pt(stop, from.Y)
	if !d.Horizontal() {
		to = geom.Pt(from.X, stop)
	}
	if q, ok := p.targets.crossing(from, to); ok {
		r.cross = from.Manhattan(q)
	}
}

// Point implements ray.Sink: it offers next, and the ray's crossing with the
// target set when the travel to next passes it, so mid-segment attachments
// are reachable goals.
func (p *connProblem) Point(next geom.Point, n int) {
	t := p.cur.At.Manhattan(next)
	p.offer(next, t)
	per := 1
	if c := p.ray.cross; c > 0 && c < t {
		step := p.ray.d.Delta()
		p.offer(geom.Pt(p.cur.At.X+step.X*c, p.cur.At.Y+step.Y*c), c)
		per = 2
	}
	// The other n-1 corners on next's corner line would each have offered
	// these same states at the same costs, which the search rejects as no
	// better than the first offer. Count them, so Generated still counts
	// one successor per visible corner.
	p.collapsed += (n - 1) * per
}

// offer offers the successor at distance t along the current ray, bounded
// by Scale*t (the CostModel floor), and prices it when the search keeps it.
func (p *connProblem) offer(next geom.Point, t geom.Coord) {
	st := State{At: next}
	if p.directional {
		st.In = p.ray.d
	}
	if !p.out.Offer(st, Scale*t) {
		return
	}
	r := &p.ray
	if !r.priced {
		r.price.eval(p.cost, p.cur.At, p.cur.In, r.d, r.stop)
		r.priced = true
	}
	p.out.Price(r.price.cost(t))
}
