package layout

import (
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// boxLeaf is the most boxes one leaf of a boxIndex files.
const boxLeaf = 4

// sortDirect is the longest query answer sorted by comparison. A longer one
// is sorted through a bitset over the cell ids.
const sortDirect = 64

// boxIndex is a static bounding-box hierarchy over a layout's cell boxes.
// It answers Validate's two candidate queries — the cells j > i whose boxes
// meet cell i's, and the cells whose boxes strictly contain a pin — each in
// ascending cell order, so the checks run on its answers in the order the
// all-pairs loops of validateNaive run them.
//
// Each node holds the bounding box of the boxes below it. A node with more
// than boxLeaf boxes splits them at the midpoint of their centers' spread
// along the axis where that spread is wider, or in half by count when all
// centers coincide. Both halves are non-empty, so there are fewer than 2n
// nodes; and the larger spread halves at least every second level, so with
// 64-bit coordinates no leaf lies deeper than about 126 + log2(n). The
// build is O(n) per level with no selection step, and the index holds O(n)
// memory whatever the boxes, overlapping or not: the cell ids in leaf
// order, the nodes, and a bitset over the ids. It reads the boxes from the
// cells, which must not change while it is in use.
//
// A query visits only nodes whose box meets the query, so on a layout whose
// boxes rarely meet it costs about O(log n) plus its answer; it never visits
// a node twice, so it never costs more than a constant times a scan of
// every cell, which is what validateNaive pays per cell and per pin.
type boxIndex struct {
	cells []Cell    // the indexed cells
	ids   []int32   // cell ids in leaf order
	nodes []boxNode // the hierarchy in preorder; nodes[0] is the root
	stack []int32   // deferred second children of the running query
	out   []int32   // the running query's answer
	marks []uint64  // a bitset over cell ids, zero between queries
}

// boxNode is one node of a boxIndex. Nodes are stored in preorder, so an
// internal node's first child follows it directly and its second child sits
// at index right. A leaf has right == 0 and files the cells ids[lo:hi].
type boxNode struct {
	box    geom.Rect
	lo, hi int32
	right  int32
}

// newBoxIndex files every cell's box. The boxes must be valid and lie in a
// rectangle of positive width and height, as Validate's cell loop ensures:
// then no center, spread or midpoint the build computes overflows.
func newBoxIndex(cells []Cell) *boxIndex {
	x := &boxIndex{cells: cells, ids: make([]int32, len(cells))}
	for i := range x.ids {
		x.ids[i] = int32(i)
	}
	if len(cells) > 0 {
		// A hierarchy of full leaves has about n/2 nodes.
		x.nodes = make([]boxNode, 0, len(cells)/2+1)
		x.split(0, len(cells))
	}
	return x
}

// box returns the box of the cell filed at leaf position k.
func (x *boxIndex) box(k int) geom.Rect { return x.cells[x.ids[k]].Box }

// split files the cells ids[lo:hi] under a new node.
func (x *boxIndex) split(lo, hi int) {
	box := x.box(lo)
	for k := lo + 1; k < hi; k++ {
		box = box.Union(x.box(k))
	}
	n := len(x.nodes)
	x.nodes = append(x.nodes, boxNode{box: box, lo: int32(lo), hi: int32(hi)})
	if hi-lo <= boxLeaf {
		return
	}
	mid := x.partition(lo, hi)
	x.split(lo, mid)
	x.nodes[n].right = int32(len(x.nodes))
	x.split(mid, hi)
}

// center returns the midpoint of b along x (byX) or y, rounded down.
func center(b geom.Rect, byX bool) geom.Coord {
	if byX {
		return b.MinX + (b.MaxX-b.MinX)/2
	}
	return b.MinY + (b.MaxY-b.MinY)/2
}

// partition reorders ids[lo:hi] so that the cells whose box centers lie
// at or below the midpoint of the centers' wider spread come first, and
// returns where the rest begin: a split strictly inside (lo, hi).
func (x *boxIndex) partition(lo, hi int) int {
	c0 := geom.Pt(center(x.box(lo), true), center(x.box(lo), false))
	spread := geom.Rect{MinX: c0.X, MinY: c0.Y, MaxX: c0.X, MaxY: c0.Y}
	for k := lo + 1; k < hi; k++ {
		b := x.box(k)
		c := geom.Pt(center(b, true), center(b, false))
		spread = spread.Union(geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X, MaxY: c.Y})
	}
	byX := spread.Width() >= spread.Height()
	if byX && spread.Width() == 0 {
		return (lo + hi) / 2 // every center coincides
	}
	mid := center(spread, byX)
	i, j := lo, hi-1
	for {
		for center(x.box(i), byX) <= mid {
			i++
		}
		for center(x.box(j), byX) > mid {
			j--
		}
		if i > j {
			return i
		}
		x.ids[i], x.ids[j] = x.ids[j], x.ids[i]
	}
}

// meeting returns, ascending, the cells j > i whose boxes share a point
// with cell i's: the pairs validateNaive tests for separation.
func (x *boxIndex) meeting(i int) []int32 {
	return x.query(x.cells[i].Box, false, int32(i))
}

// around returns, ascending, the cells whose boxes strictly contain p: the
// only cells whose interior can hold p.
func (x *boxIndex) around(p geom.Point) []int32 {
	return x.query(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, true, -1)
}

// query returns, ascending, the cells above after whose boxes meet q: share
// a point with it, or an interior point when strict. A strictly met box
// lies in a strictly met node, so the strict descent prunes as soundly as
// the closed one. The answer is overwritten by the next query.
func (x *boxIndex) query(q geom.Rect, strict bool, after int32) []int32 {
	out := x.out[:0]
	if len(x.nodes) == 0 {
		return out
	}
	stack := x.stack[:0]
	n := int32(0)
	for {
		if nd := &x.nodes[n]; meets(nd.box, q, strict) {
			if nd.right != 0 {
				stack = append(stack, nd.right)
				n++
				continue
			}
			for k := nd.lo; k < nd.hi; k++ {
				if id := x.ids[k]; id > after && meets(x.cells[id].Box, q, strict) {
					out = append(out, id)
				}
			}
		}
		if len(stack) == 0 {
			break
		}
		n = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	}
	x.stack, x.out = stack, out
	x.sortIDs(out)
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

// sortIDs sorts a query answer, distinct cell ids, ascending. A long one is
// marked in the bitset and read back in order, in time linear in its length
// plus the span of its ids over 64, so sorting never costs more than a scan
// of every cell either.
func (x *boxIndex) sortIDs(ids []int32) {
	if len(ids) <= sortDirect {
		slices.Sort(ids)
		return
	}
	if x.marks == nil {
		x.marks = make([]uint64, (len(x.ids)+63)/64)
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		x.marks[id/64] |= 1 << (id % 64)
		lo, hi = min(lo, id), max(hi, id)
	}
	k := 0
	for w := lo / 64; w <= hi/64; w++ {
		for m := x.marks[w]; m != 0; m &= m - 1 {
			ids[k] = w*64 + int32(bits.TrailingZeros64(m))
			k++
		}
		x.marks[w] = 0
	}
}
