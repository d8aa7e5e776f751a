package boxtree

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// This file holds every query of the tree to a linear scan of the filed
// boxes, on drawn sets aimed at the split rule's edge cases, and pins the
// build's size and depth bounds and its reuse of memory.

// scene is one drawn set of boxes, with the range its queries draw from:
// coordinates in [lo, hi] along both axes.
type scene struct {
	boxes  []geom.Rect
	lo, hi geom.Coord
}

// drawScene draws boxes on a small lattice, of one of four shapes:
//   - random boxes of positive size, so answers run from empty to nearly
//     every box and take both of Meeting's sort paths;
//   - points and zero-width or zero-height boxes, the router's target
//     points and segments;
//   - copies of a few boxes, most of them identical;
//   - boxes nested around one center, so every center coincides.
//
// One scene in three is translated to touch the int64 limit on either side.
func drawScene(r *rand.Rand) scene {
	span := geom.Coord(1 + r.Intn(60))
	coord := func() geom.Coord { return geom.Coord(r.Int63n(int64(span))) }
	boxes := make([]geom.Rect, r.Intn(300))
	switch shape := r.Intn(4); shape {
	case 0:
		for i := range boxes {
			x, y := coord(), coord()
			boxes[i] = geom.R(x, y, x+1+coord(), y+1+coord())
		}
	case 1:
		for i := range boxes {
			x, y := coord(), coord()
			switch r.Intn(3) {
			case 0:
				boxes[i] = geom.R(x, y, x, y)
			case 1:
				boxes[i] = geom.R(x, y, x+coord(), y)
			default:
				boxes[i] = geom.R(x, y, x, y+coord())
			}
		}
	case 2:
		few := make([]geom.Rect, 1+r.Intn(3))
		for i := range few {
			x, y := coord(), coord()
			few[i] = geom.R(x, y, x+coord(), y+coord())
		}
		for i := range boxes {
			boxes[i] = few[0]
			if r.Intn(8) == 0 {
				boxes[i] = few[r.Intn(len(few))]
			}
		}
	default:
		c := geom.Pt(span, span)
		for i := range boxes {
			dx, dy := coord(), coord()
			boxes[i] = geom.R(c.X-dx, c.Y-dy, c.X+dx, c.Y+dy)
		}
	}
	s := scene{boxes: boxes, lo: -1, hi: 2*span + 1}
	switch r.Intn(6) {
	case 0:
		s.translate(math.MinInt64 - s.lo)
	case 1:
		s.translate(math.MaxInt64 - s.hi)
	}
	return s
}

// translate shifts the scene by d along both axes.
func (s *scene) translate(d geom.Coord) {
	for i := range s.boxes {
		s.boxes[i] = s.boxes[i].Translate(geom.Pt(d, d))
	}
	s.lo, s.hi = s.lo+d, s.hi+d
}

// box returns the filed box with id i, the Build callback.
func (s *scene) box(i int) geom.Rect { return s.boxes[i] }

// scanMeeting is Meeting by a scan of every box in id order.
func scanMeeting(boxes []geom.Rect, q geom.Rect, strict bool, after int32) []int32 {
	var ids []int32
	for i, b := range boxes {
		if int32(i) > after && meets(b, q, strict) {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// scanNearest is Nearest by a scan: every box's clamp point, least
// distance first, then the lexicographically smaller point.
func scanNearest(boxes []geom.Rect, p geom.Point) (geom.Point, geom.Coord) {
	best, bestD := geom.Point{}, geom.Coord(-1)
	for _, b := range boxes {
		q := geom.Pt(geom.Clamp(p.X, b.MinX, b.MaxX), geom.Clamp(p.Y, b.MinY, b.MaxY))
		if d := p.Manhattan(q); bestD < 0 || d < bestD || (d == bestD && q.Less(best)) {
			best, bestD = q, d
		}
	}
	return best, bestD
}

// scanMeetingDist is MeetingDist by a scan.
func scanMeetingDist(boxes []geom.Rect, q geom.Rect, p geom.Point) (geom.Coord, bool) {
	best, ok := geom.Coord(0), false
	for _, b := range boxes {
		if d := b.Distance(p); q.Intersects(b) && (!ok || d < best) {
			best, ok = d, true
		}
	}
	return best, ok
}

// checkScene builds tr over one drawn scene and compares every query with
// its scan: Validate's pair query for every box, and at random points
// Validate's pin query, closed and strict Meeting over random rectangles
// above random ids, Contains, Nearest, and the first contact along a
// horizontal, vertical or degenerate travel from the point.
func checkScene(t *testing.T, tr *Tree, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := drawScene(r)
	tr.Build(len(s.boxes), s.box)
	label := fmt.Sprintf("seed %d, %d boxes", seed, len(s.boxes))
	coord := func() geom.Coord { return s.lo + r.Int63n(int64(s.hi-s.lo)+1) }
	for i, b := range s.boxes {
		got, want := tr.Meeting(b, false, int32(i)), scanMeeting(s.boxes, b, false, int32(i))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Meeting(box %d, closed, %d) = %v, want %v", label, i, i, got, want)
		}
	}
	for k := 0; k < 60; k++ {
		p := geom.Pt(coord(), coord())
		pr := geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
		if got, want := tr.Meeting(pr, true, -1), scanMeeting(s.boxes, pr, true, -1); !slices.Equal(got, want) {
			t.Fatalf("%s: Meeting(%v, strict) = %v, want %v", label, p, got, want)
		}
		q := geom.R(coord(), coord(), coord(), coord())
		strict, after := r.Intn(2) == 0, int32(r.Intn(len(s.boxes)+1)-1)
		if got, want := tr.Meeting(q, strict, after), scanMeeting(s.boxes, q, strict, after); !slices.Equal(got, want) {
			t.Fatalf("%s: Meeting(%v, strict %v, %d) = %v, want %v", label, q, strict, after, got, want)
		}
		if got, want := tr.Contains(p), scanMeeting(s.boxes, pr, false, -1) != nil; got != want {
			t.Fatalf("%s: Contains(%v) = %v, want %v", label, p, got, want)
		}
		gotQ, gotD := tr.Nearest(p)
		if wantQ, wantD := scanNearest(s.boxes, p); gotQ != wantQ || gotD != wantD {
			t.Fatalf("%s: Nearest(%v) = %v at %d, want %v at %d", label, p, gotQ, gotD, wantQ, wantD)
		}
		to := p
		switch r.Intn(5) {
		case 0: // degenerate
		case 1, 2:
			to.X = coord()
		default:
			to.Y = coord()
		}
		travel := geom.S(p, to).Bounds()
		gotD, gotOK := tr.MeetingDist(travel, p)
		if wantD, wantOK := scanMeetingDist(s.boxes, travel, p); gotOK != wantOK || gotD != wantD {
			t.Fatalf("%s: MeetingDist(%v, %v) = %d %v, want %d %v", label, travel, p, gotD, gotOK, wantD, wantOK)
		}
	}
}

// TestTreeMatchesScan runs checkScene on 200 scenes, all filed in one tree
// so that each build and query starts from the scratch the last one left.
func TestTreeMatchesScan(t *testing.T) {
	var tr Tree
	for seed := int64(0); seed < 200; seed++ {
		checkScene(t, &tr, seed)
	}
}

// FuzzTreeQueries explores checkScene from arbitrary seeds; `go test` runs
// the corpus, `go test -fuzz` explores.
func FuzzTreeQueries(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 42, -3, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var tr Tree
		checkScene(t, &tr, seed)
	})
}

// worstCases are the sets the build's bounds are pinned on, each of n
// boxes: identical whole-chip boxes (groutd accepts a body of 20,000
// identical cells), boxes nested around one center, points at
// exponentially spaced coordinates, which peel one coordinate off the
// spread per split, and those points against either int64 limit or
// against both, a spread wider than the largest Coord.
func worstCases(n int) map[string][]geom.Rect {
	pow := func(k int) geom.Coord { return geom.Coord(1) << (k % 63) }
	cases := map[string][]geom.Rect{}
	add := func(name string, box func(k int) geom.Rect) {
		boxes := make([]geom.Rect, n)
		for k := range boxes {
			boxes[k] = box(k)
		}
		cases[name] = boxes
	}
	add("identical", func(int) geom.Rect { return geom.R(0, 0, 1<<20, 1<<20) })
	add("coincident", func(k int) geom.Rect { return geom.R(-geom.Coord(k), -1, geom.Coord(k), 1) })
	add("exponential", func(k int) geom.Rect {
		x, y := pow(k), pow(k/63)
		return geom.R(x, y, x, y)
	})
	add("min-limit", func(k int) geom.Rect {
		x, y := math.MinInt64+pow(k), math.MinInt64+pow(k/63)
		return geom.R(x, y, x, y)
	})
	add("max-limit", func(k int) geom.Rect {
		x, y := math.MaxInt64-pow(k), math.MaxInt64-pow(k/63)
		return geom.R(x, y, x, y)
	})
	add("both-limits", func(k int) geom.Rect {
		x, y := math.MinInt64+pow(k/2), math.MaxInt64-pow(k/126)
		if k%2 == 1 {
			x = math.MaxInt64 - pow(k/2)
		}
		return geom.R(x, y, x, y)
	})
	return cases
}

// TestBuildBounds builds the worst cases at up to 20,000 boxes and checks
// the shape the type's documentation promises: fewer than 2n nodes, no
// leaf more than 128 + ⌈log₂ n⌉ levels below the root, leaves of at most
// leafSize boxes, and every id filed exactly once.
func TestBuildBounds(t *testing.T) {
	for _, n := range []int{1, 5, 64, 1000, 20000} {
		for name, boxes := range worstCases(n) {
			var tr Tree
			tr.Build(n, func(i int) geom.Rect { return boxes[i] })
			depth, seen := 0, make([]bool, n)
			var walk func(nd int32, level int)
			walk = func(nd int32, level int) {
				x := tr.nodes[nd]
				if x.right != 0 {
					walk(nd+1, level+1)
					walk(x.right, level+1)
					return
				}
				depth = max(depth, level)
				if x.hi-x.lo > leafSize {
					t.Errorf("%s n=%d: leaf of %d boxes", name, n, x.hi-x.lo)
				}
				for _, id := range tr.ids[x.lo:x.hi] {
					seen[id] = true
				}
			}
			walk(0, 0)
			if len(tr.nodes) >= 2*n {
				t.Errorf("%s n=%d: %d nodes, want fewer than %d", name, n, len(tr.nodes), 2*n)
			}
			if bound := 128 + bits.Len(uint(n-1)); depth > bound {
				t.Errorf("%s n=%d: a leaf %d levels deep, bound %d", name, n, depth, bound)
			}
			if i := slices.Index(seen, false); i >= 0 {
				t.Errorf("%s n=%d: box %d not filed", name, n, i)
			}
			if n == 20000 {
				t.Logf("%s: %d nodes, depth %d", name, len(tr.nodes), depth)
			}
		}
	}
}

// TestWarmTreeAllocatesNothing pins the reuse of memory on every worst
// case. A tree warmed on a 32×32 grid of unit boxes, whose full leaves
// give the least depth, is rebuilt over a worst case, most of them far
// deeper, and answers every query without allocating: the query stack is
// reserved for the depth bound. Rebuilt again over those boxes, or over
// fewer of them, it allocates nothing at all.
func TestWarmTreeAllocatesNothing(t *testing.T) {
	grid := func(i int) geom.Rect {
		x, y := geom.Coord(2*(i%32)), geom.Coord(2*(i/32))
		return geom.R(x, y, x+1, y+1)
	}
	all := geom.R(math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64)
	for name, boxes := range worstCases(1000) {
		var tr Tree
		tr.Build(1024, grid)
		if got := len(tr.Meeting(all, false, -1)); got != 1024 {
			t.Fatalf("warm-up Meeting answered %d boxes, want 1024", got)
		}
		build := func(n int) func() {
			return func() { tr.Build(n, func(i int) geom.Rect { return boxes[i] }) }
		}
		build(len(boxes))()
		area, pt := boxes[500].Union(boxes[300]), geom.Pt(boxes[300].MinX, boxes[300].MaxY)
		queries := map[string]func(){
			"Meeting closed": func() { tr.Meeting(area, false, 0) },
			"Meeting all":    func() { tr.Meeting(all, false, -1) },
			"Meeting strict": func() { tr.Meeting(area, true, -1) },
			"Contains":       func() { tr.Contains(pt) },
			"Nearest":        func() { tr.Nearest(pt) },
			"MeetingDist":    func() { tr.MeetingDist(area, pt) },
		}
		for qname, query := range queries {
			if a := testing.AllocsPerRun(10, query); a != 0 {
				t.Errorf("%s: %s allocates %v times", name, qname, a)
			}
		}
		for _, n := range []int{len(boxes), 300} {
			if a := testing.AllocsPerRun(10, build(n)); a != 0 {
				t.Errorf("%s: rebuild over %d boxes allocates %v times", name, n, a)
			}
		}
	}
}
