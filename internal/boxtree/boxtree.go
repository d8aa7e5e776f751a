// Package boxtree is the engine's one bounding-box hierarchy, a static
// index over axis-parallel boxes. layout.Validate files the cell boxes in
// it to find the pairs and pins its checks can fail on; the router files
// the partial Steiner tree that a connection search aims at, one box per
// target point and segment.
package boxtree

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// leafSize is the most boxes one leaf files.
const leafSize = 4

// sortDirect is the longest Meeting answer sorted by comparison. A longer
// one is sorted through a bitset over the ids.
const sortDirect = 64

// maxDepth bounds the depth of a tree over n boxes, root counted as 1 (see
// Tree): the query stack is reserved for it.
func maxDepth(n int) int { return 129 + bits.Len(uint(n)) }

// Tree is a static bounding-box hierarchy. Build files n boxes under the
// ids 0..n-1, and the queries answer from them until the next Build.
//
// Each node holds the bounding box of the boxes below it. A node with more
// than leafSize boxes splits them at the midpoint of their centers' spread
// along the axis where that spread is wider, or in half by count when all
// centers coincide. Both halves are non-empty, so there are fewer than 2n
// nodes; and the larger spread halves at least every second level, so with
// 64-bit coordinates no leaf lies more than 128 + ⌈log₂ n⌉ levels below the
// root. The build is O(n) per level with no selection step: quickselect's
// quadratic worst case would be open to the untrusted layouts Validate
// reads. The tree holds O(n) memory whatever the boxes, overlapping or not.
//
// A query visits only the nodes it cannot rule out and never visits a node
// twice, so it never costs more than a constant times a scan of every box.
// A Tree keeps its buffers and query scratch across builds and queries: a
// rebuild allocates only for more boxes or nodes than any build before it,
// and a query only for a longer Meeting answer than any before it. It is
// not safe for concurrent use.
type Tree struct {
	boxes []geom.Rect // the filed boxes in leaf order
	ids   []int32     // their ids, in the same order
	nodes []node      // the hierarchy in preorder; nodes[0] is the root
	stack []visit     // deferred subtrees of the running query
	out   []int32     // the running Meeting answer
	marks []uint64    // a bitset over ids, zero between queries
}

// node is one node of a Tree. Nodes are stored in preorder, so an internal
// node's first child follows it directly and its second child sits at index
// right. A leaf has right == 0 (the root is nobody's second child) and files
// boxes[lo:hi].
type node struct {
	box    geom.Rect
	lo, hi int32
	right  int32
}

// visit is a subtree a query has deferred, with a lower bound on what it
// can contribute: a distance from the query point.
type visit struct {
	node int32
	d    geom.Coord
}

// Build files box(i) under id i for every i < n, replacing what the tree
// held. Every box must be valid.
func (t *Tree) Build(n int, box func(i int) geom.Rect) {
	t.boxes = slices.Grow(t.boxes[:0], n)
	t.ids = slices.Grow(t.ids[:0], n)
	for i := 0; i < n; i++ {
		t.boxes = append(t.boxes, box(i))
		t.ids = append(t.ids, int32(i))
	}
	// A hierarchy of full leaves has about n/2 nodes; split grows the slice
	// for an uneven one.
	t.nodes = slices.Grow(t.nodes[:0], n/2+1)
	// A query defers at most one sibling per level of its path.
	t.stack = slices.Grow(t.stack[:0], maxDepth(n))
	// The bitset is zero between queries, so the words it reuses are too.
	t.marks = slices.Grow(t.marks[:0], (n+63)/64)[:(n+63)/64]
	if n > 0 {
		t.split(0, n)
	}
}

// split files boxes[lo:hi] under a new node.
func (t *Tree) split(lo, hi int) {
	box := t.boxes[lo]
	for _, b := range t.boxes[lo+1 : hi] {
		box = box.Union(b)
	}
	n := len(t.nodes)
	t.nodes = append(t.nodes, node{box: box, lo: int32(lo), hi: int32(hi)})
	if hi-lo <= leafSize {
		return
	}
	mid := t.partition(lo, hi)
	t.split(lo, mid)
	t.nodes[n].right = int32(len(t.nodes))
	t.split(mid, hi)
}

// midpoint returns (a+b)/2 rounded down, without overflow.
func midpoint(a, b geom.Coord) geom.Coord { return a>>1 + b>>1 + a&b&1 }

// center returns the midpoint of b along x (byX) or y, rounded down.
func center(b geom.Rect, byX bool) geom.Coord {
	if byX {
		return midpoint(b.MinX, b.MaxX)
	}
	return midpoint(b.MinY, b.MaxY)
}

// partition reorders boxes[lo:hi], and ids with them, so that the boxes
// whose centers lie at or below the midpoint of the centers' wider spread
// come first, and returns where the rest begin: a split strictly inside
// (lo, hi).
func (t *Tree) partition(lo, hi int) int {
	c0 := geom.Pt(center(t.boxes[lo], true), center(t.boxes[lo], false))
	spread := geom.Rect{MinX: c0.X, MinY: c0.Y, MaxX: c0.X, MaxY: c0.Y}
	for _, b := range t.boxes[lo+1 : hi] {
		c := geom.Pt(center(b, true), center(b, false))
		spread = spread.Union(geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X, MaxY: c.Y})
	}
	// The spread's sides, as unsigned: they can exceed the largest Coord.
	w, h := uint64(spread.MaxX-spread.MinX), uint64(spread.MaxY-spread.MinY)
	if w == 0 && h == 0 {
		return (lo + hi) / 2 // every center coincides
	}
	byX := w >= h
	m := center(spread, byX)
	i, j := lo, hi-1
	//grlint:bounded i and j close in on each other every round
	for {
		for center(t.boxes[i], byX) <= m {
			i++
		}
		for center(t.boxes[j], byX) > m {
			j--
		}
		if i > j {
			return i
		}
		t.boxes[i], t.boxes[j] = t.boxes[j], t.boxes[i]
		t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
	}
}

// Meeting returns, ascending, the ids above after of the boxes that meet
// q: that share a point with it, or an interior point when strict. A
// strictly met box lies in a strictly met node, so the strict descent
// prunes as soundly as the closed one. The answer is overwritten by the
// next query.
func (t *Tree) Meeting(q geom.Rect, strict bool, after int32) []int32 {
	out := t.out[:0]
	if len(t.nodes) == 0 {
		return out
	}
	stack := t.stack[:0]
	n := int32(0)
	//grlint:bounded visits each node of the finite hierarchy at most once
	for {
		if nd := &t.nodes[n]; meets(nd.box, q, strict) {
			if nd.right != 0 {
				stack = append(stack, visit{node: nd.right})
				n++
				continue
			}
			for k := nd.lo; k < nd.hi; k++ {
				if id := t.ids[k]; id > after && meets(t.boxes[k], q, strict) {
					out = append(out, id)
				}
			}
		}
		if len(stack) == 0 {
			break
		}
		n = stack[len(stack)-1].node
		stack = stack[:len(stack)-1]
	}
	t.out = out
	t.sortIDs(out)
	return out
}

// meets reports whether b shares a point with q, or an interior point when
// strict.
func meets(b, q geom.Rect, strict bool) bool {
	if strict {
		return b.IntersectsStrict(q)
	}
	return b.Intersects(q)
}

// sortIDs sorts a Meeting answer, distinct ids, ascending. A long one is
// marked in the bitset and read back in order, in time linear in its length
// plus the span of its ids over 64, so sorting never costs more than a scan
// of every box either.
func (t *Tree) sortIDs(ids []int32) {
	if len(ids) <= sortDirect {
		slices.Sort(ids)
		return
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		t.marks[id/64] |= 1 << (id % 64)
		lo, hi = min(lo, id), max(hi, id)
	}
	k := 0
	for w := lo / 64; w <= hi/64; w++ {
		for m := t.marks[w]; m != 0; m &= m - 1 {
			ids[k] = w*64 + int32(bits.TrailingZeros64(m))
			k++
		}
		t.marks[w] = 0
	}
}

// Contains reports whether some box contains p, boundary included: a point
// stab down the nodes that contain p.
func (t *Tree) Contains(p geom.Point) bool {
	if len(t.nodes) == 0 {
		return false
	}
	stack := t.stack[:0]
	n := int32(0)
	//grlint:bounded visits each node of the finite hierarchy at most once
	for {
		if nd := &t.nodes[n]; nd.box.Contains(p) {
			if nd.right != 0 {
				stack = append(stack, visit{node: nd.right})
				n++
				continue
			}
			for _, b := range t.boxes[nd.lo:nd.hi] {
				if b.Contains(p) {
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

// Nearest returns the point of the boxes nearest p and its Manhattan
// distance, or the zero point and -1 when no box is filed. A box's nearest
// point to p is its clamp point, which is unique; distance ties between
// boxes break toward the lexicographically smaller point, which makes the
// answer a pure function of the filed boxes.
//
// The search is branch and bound: it descends into the nearer child first
// and drops a subtree only when its box is strictly farther than the best
// distance found, so every box at a tied distance still reaches the
// tie-break.
func (t *Tree) Nearest(p geom.Point) (geom.Point, geom.Coord) {
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
				da, db := t.nodes[a].box.Distance(p), t.nodes[b].box.Distance(p)
				if db < da {
					a, b, da, db = b, a, db, da
				}
				stack = append(stack, visit{node: b, d: db})
				n, d = a, da
				continue
			}
			for _, e := range t.boxes[nd.lo:nd.hi] {
				if ed := e.Distance(p); ed <= bestD {
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

// MeetingDist returns the least Manhattan distance from p to a box that
// shares a point with q, and whether any box does. It visits only nodes
// that meet q, nearer to p first, and drops a subtree that cannot beat the
// best distance found.
func (t *Tree) MeetingDist(q geom.Rect, p geom.Point) (geom.Coord, bool) {
	if len(t.nodes) == 0 || !q.Intersects(t.nodes[0].box) {
		return 0, false
	}
	bestD := geom.Coord(math.MaxInt64)
	stack := t.stack[:0]
	n, d := int32(0), geom.Coord(0) // the root meets q
	//grlint:bounded visits each node of the finite hierarchy at most once
	for {
		if d < bestD {
			nd := &t.nodes[n]
			if nd.right != 0 {
				a, b := n+1, nd.right
				da, db := geom.Coord(math.MaxInt64), geom.Coord(math.MaxInt64)
				if q.Intersects(t.nodes[a].box) {
					da = t.nodes[a].box.Distance(p)
				}
				if q.Intersects(t.nodes[b].box) {
					db = t.nodes[b].box.Distance(p)
				}
				if db < da {
					a, b, da, db = b, a, db, da
				}
				if db < bestD {
					stack = append(stack, visit{node: b, d: db})
				}
				n, d = a, da
				continue
			}
			for _, e := range t.boxes[nd.lo:nd.hi] {
				if q.Intersects(e) {
					bestD = min(bestD, e.Distance(p))
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
		return 0, false
	}
	return bestD, true
}
