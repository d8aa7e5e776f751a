package router

import (
	"math"

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

// targetLeaf is the most elements one leaf of a target hierarchy files.
const targetLeaf = 4

// targetSet is the goal of a connection search: a set of points and
// segments. A plain two-pin route has a single target point; a Steiner
// attachment targets the whole partially-built tree, segments included —
// the paper's modification of the spanning-tree algorithm.
//
// On multi-terminal nets the partial tree reaches hundreds of segments, and
// nearest/crossing run once per generated node, so the queries are answered
// from a static bounding-box hierarchy: every target point and every
// segment is filed as its bounding box, and each node holds the bounding
// box of the elements below it. RouteNet grows one shared set as the tree
// accretes (addPoints/addSegs); prepare, which routeConnection calls before
// every search, rebuilds the hierarchy when the set has changed since the
// last build — once per Steiner round. The elements, nodes and query stack
// keep their capacity across builds, so a set recycled through
// netScratchPool stops allocating once warm.
type targetSet struct {
	points []geom.Point
	segs   []geom.Seg

	elems []geom.Rect   // one box per point and segment, in leaf order
	nodes []targetNode  // the hierarchy in preorder; nodes[0] is the root
	stack []targetVisit // deferred subtrees of the running query
	built bool          // elems and nodes describe points and segs
	// validated marks that every target point passed endpoint validation;
	// RouteNet's candidate searches share one set, so the check runs once.
	validated bool
}

// targetNode is one node of a target hierarchy. Nodes are stored in
// preorder, so an internal node's first child follows it directly and its
// second child sits at index right. A leaf has right == 0 (the root is
// nobody's second child) and files elems[lo:hi]. box bounds every element
// below the node.
type targetNode struct {
	box    geom.Rect
	lo, hi int32
	right  int32
}

// targetVisit is a subtree a query has deferred, with the lower bound on
// what it can contribute: a distance from the query point.
type targetVisit struct {
	node int32
	d    geom.Coord
}

// reset readies a recycled set for a new net, keeping capacity.
func (t *targetSet) reset() {
	t.points = t.points[:0]
	t.segs = t.segs[:0]
	t.built = false
	t.validated = false
}

// addPoints appends target points; the hierarchy catches up on next prepare.
func (t *targetSet) addPoints(pts ...geom.Point) {
	t.points = append(t.points, pts...)
	t.built = false
}

// addSegs appends target segments; the hierarchy catches up on next prepare.
func (t *targetSet) addSegs(segs ...geom.Seg) {
	t.segs = append(t.segs, segs...)
	t.built = false
}

// prepare rebuilds the hierarchy if the set changed since the last build.
// routeConnection calls it before every search; free when nothing changed.
func (t *targetSet) prepare() {
	if t.built {
		return
	}
	els := t.elems[:0]
	for _, q := range t.points {
		els = append(els, geom.Rect{MinX: q.X, MinY: q.Y, MaxX: q.X, MaxY: q.Y})
	}
	for _, s := range t.segs {
		els = append(els, s.Bounds())
	}
	t.elems = els
	t.nodes = t.nodes[:0]
	if len(els) > 0 {
		if depth := t.split(0, len(els), 1); cap(t.stack) < depth {
			// A query defers at most one sibling per level of its path.
			t.stack = make([]targetVisit, 0, depth)
		}
	}
	t.built = true
}

// split files elems[lo:hi] under a new node at the given depth and returns
// the depth of the deepest leaf below it. A node with more than targetLeaf
// elements splits them at the median of their box centers along the wider
// side of its box and files each half under a child.
func (t *targetSet) split(lo, hi, depth int) int {
	box := t.elems[lo]
	for _, e := range t.elems[lo+1 : hi] {
		box = box.Union(e)
	}
	i := len(t.nodes)
	t.nodes = append(t.nodes, targetNode{box: box, lo: int32(lo), hi: int32(hi)})
	if hi-lo <= targetLeaf {
		return depth
	}
	mid := (lo + hi) / 2
	selectMedian(t.elems[lo:hi], mid-lo, box.Width() >= box.Height())
	dl := t.split(lo, mid, depth+1)
	right := len(t.nodes)
	dr := t.split(mid, hi, depth+1)
	t.nodes[i].right = int32(right)
	return max(dl, dr)
}

// centerKey is twice the center of box e along x (byX) or y.
func centerKey(e geom.Rect, byX bool) geom.Coord {
	if byX {
		return e.MinX + e.MaxX
	}
	return e.MinY + e.MaxY
}

// selectMedian reorders es so that es[k] is the element a sort by
// centerKey would put there, no element before it has a larger key, and
// none after it a smaller one: Hoare's selection, which stays linear when
// many keys are equal.
func selectMedian(es []geom.Rect, k int, byX bool) {
	lo, hi := 0, len(es)-1
	//grlint:bounded every round shrinks [lo, hi] around k
	for lo < hi {
		pivot := centerKey(es[(lo+hi)/2], byX)
		i, j := lo, hi
		//grlint:bounded i and j close in on each other every round
		for i <= j {
			for centerKey(es[i], byX) < pivot {
				i++
			}
			for centerKey(es[j], byX) > pivot {
				j--
			}
			if i <= j {
				es[i], es[j] = es[j], es[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return // es[j+1:i] all hold the pivot key, es[k] among them
		}
	}
}

// boxDist is the Manhattan distance from p to the nearest point of box b.
func boxDist(b geom.Rect, p geom.Point) geom.Coord {
	var d geom.Coord
	if p.X < b.MinX {
		d = b.MinX - p.X
	} else if p.X > b.MaxX {
		d = p.X - b.MaxX
	}
	if p.Y < b.MinY {
		d += b.MinY - p.Y
	} else if p.Y > b.MaxY {
		d += p.Y - b.MaxY
	}
	return d
}

// contains reports whether p is on the target set: a point stab down the
// boxes that contain p.
func (t *targetSet) contains(p geom.Point) bool {
	if len(t.nodes) == 0 {
		return false
	}
	stack := t.stack[:0]
	n := int32(0)
	//grlint:bounded visits each node of the finite hierarchy at most once
	for {
		if nd := &t.nodes[n]; nd.box.Contains(p) {
			if nd.right != 0 {
				stack = append(stack, targetVisit{node: nd.right})
				n++
				continue
			}
			for _, e := range t.elems[nd.lo:nd.hi] {
				if e.Contains(p) {
					return true
				}
			}
		}
		if len(stack) == 0 {
			return false
		}
		n = stack[len(stack)-1].node
		stack = stack[:len(stack)-1]
	}
}

// nearest returns the closest point of the target set to p and its
// Manhattan distance. The distance is an admissible heuristic; the point
// guides ray generation. Each point contributes itself and each segment its
// clamp point, the unique nearest point of its box; distance ties break
// toward the lexicographically smaller point, which makes the answer a pure
// function of the set.
//
// The search is branch and bound: it descends into the nearer child first
// and drops a subtree only when its box is strictly farther than the best
// distance found, so every element at a tied distance still reaches the
// tie-break.
func (t *targetSet) nearest(p geom.Point) (geom.Point, geom.Coord) {
	if len(t.nodes) == 0 {
		return geom.Point{}, -1
	}
	best := geom.Point{}
	bestD := geom.Coord(math.MaxInt64)
	stack := t.stack[:0]
	n, d := int32(0), geom.Coord(0) // the root is always searched
	//grlint:bounded visits each node of the finite hierarchy at most once
	for {
		if d <= bestD {
			nd := &t.nodes[n]
			if nd.right != 0 {
				a, b := n+1, nd.right
				da, db := boxDist(t.nodes[a].box, p), boxDist(t.nodes[b].box, p)
				if db < da {
					a, b, da, db = b, a, db, da
				}
				stack = append(stack, targetVisit{node: b, d: db})
				n, d = a, da
				continue
			}
			for _, e := range t.elems[nd.lo:nd.hi] {
				if ed := boxDist(e, p); ed <= bestD {
					q := geom.Pt(geom.Clamp(p.X, e.MinX, e.MaxX), geom.Clamp(p.Y, e.MinY, e.MaxY))
					if ed < bestD || q.Less(best) {
						best, bestD = q, ed
					}
				}
			}
		}
		if len(stack) == 0 {
			return best, bestD
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, d = v.node, v.d
	}
}

// crossing returns the point where the directed travel segment from→to
// first meets the target set, if it does. Rays are cast toward the nearest
// target, but a travel segment can also cross a *different* target segment
// transversally; detecting that crossing early is what lets a route attach
// to the middle of an existing tree edge.
//
// An element meets the travel when its box meets the travel's, and then its
// first contact lies on the travel at the box's distance from `from`, so the
// answer is the met element nearest `from`: distinct candidates lie at
// distinct distances and the result does not depend on visiting order. The
// search visits only boxes that meet the travel, nearer first, and drops a
// subtree that cannot beat the best contact.
func (t *targetSet) crossing(from, to geom.Point) (geom.Point, bool) {
	if from == to {
		// Degenerate travel: the only possible contact is the point itself.
		if t.contains(from) {
			return from, true
		}
		return geom.Point{}, false
	}
	travel := geom.S(from, to)
	tb := travel.Bounds()
	if len(t.nodes) == 0 || !tb.Intersects(t.nodes[0].box) {
		return geom.Point{}, false
	}
	bestD := geom.Coord(math.MaxInt64)
	stack := t.stack[:0]
	n, d := int32(0), geom.Coord(0) // the root meets the travel
	//grlint:bounded visits each node of the finite hierarchy at most once
	for {
		if d < bestD {
			nd := &t.nodes[n]
			if nd.right != 0 {
				a, b := n+1, nd.right
				da, db := geom.Coord(math.MaxInt64), geom.Coord(math.MaxInt64)
				if tb.Intersects(t.nodes[a].box) {
					da = boxDist(t.nodes[a].box, from)
				}
				if tb.Intersects(t.nodes[b].box) {
					db = boxDist(t.nodes[b].box, from)
				}
				if db < da {
					a, b, da, db = b, a, db, da
				}
				if db < bestD {
					stack = append(stack, targetVisit{node: b, d: db})
				}
				n, d = a, da
				continue
			}
			for _, e := range t.elems[nd.lo:nd.hi] {
				if tb.Intersects(e) {
					bestD = min(bestD, boxDist(e, from))
				}
			}
		}
		if len(stack) == 0 {
			break
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, d = v.node, v.d
	}
	if bestD == math.MaxInt64 {
		return geom.Point{}, false
	}
	step := travel.Dir().Delta()
	return geom.Pt(from.X+step.X*bestD, from.Y+step.Y*bestD), true
}

// connProblem adapts a connection query to the generic search framework.
// The cur/emit/wrap fields are per-expansion scratch: the search core passes
// one stable emit closure for the whole run, so the ray-to-search adapter
// closure is built once and rebound through the fields instead of being
// reallocated on every expansion.
type connProblem struct {
	gen        ray.Gen
	cost       CostModel
	sources    []geom.Point
	targets    *targetSet
	onExpand   func(geom.Point, search.Cost)
	onGenerate func(geom.Point, search.Cost)

	directional bool
	cur         State
	emit        func(State, search.Cost)
	wrap        func(geom.Point, geom.Dir, int)
	// collapsed counts the successors the generator folded into a corner
	// line's single emission (see Successors); routeConnection adds it to
	// the search's Generated.
	collapsed int
}

var (
	_ search.Problem[State]       = (*connProblem)(nil)
	_ search.TracedProblem[State] = (*connProblem)(nil)
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

// Successors implements search.Problem.
func (p *connProblem) Successors(s State, emit func(State, search.Cost)) {
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
				emit(State{At: src}, 0)
			}
		}
		return
	}
	p.cur = s
	p.emit = emit
	if p.wrap == nil {
		p.directional = p.cost.Directional()
		p.wrap = func(next geom.Point, via geom.Dir, n int) {
			s := p.cur
			p.emitMove(s, next, via)
			per := 1
			// If the travel segment crosses the target set before reaching
			// `next`, emit the crossing too so mid-segment attachments are
			// reachable goals.
			if q, ok := p.targets.crossing(s.At, next); ok && q != next && q != s.At {
				p.emitMove(s, q, via)
				per = 2
			}
			// The other n-1 corners on next's corner line would each have
			// emitted these same states at the same costs, which the search
			// rejects as no better than the first emission. Count them, so
			// Generated still counts one successor per visible corner.
			p.collapsed += (n - 1) * per
		}
	}
	guide, _ := p.targets.nearest(s.At)
	p.gen.Successors(s.At, guide, p.wrap)
}

// emitMove prices and emits a single successor.
func (p *connProblem) emitMove(s State, next geom.Point, via geom.Dir) {
	cost := p.cost.SegCost(s.At, next, s.In)
	st := State{At: next}
	if p.directional {
		st.In = via
	}
	p.emit(st, cost)
}
