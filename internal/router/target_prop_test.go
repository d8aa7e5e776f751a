package router

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// This file pins the targetSet queries answered from the box hierarchy —
// nearest (including the lexicographic tie-break on distance ties),
// crossing, and contains — to naive linear scans over randomized target
// sets: small square sets with deliberately tie-prone coordinates, and
// control-net-shaped trees deep enough to exercise several hierarchy
// levels. The fuzz target drives the identical comparison from arbitrary
// seeds. Routes are byte-for-byte functions of these three queries, so
// their equivalence is what keeps routing output identical under the
// hierarchy.

// naiveNearest is the pre-index linear scan (candidates: every target
// point, plus the clamp point of every segment; min by distance, ties by
// lexicographic point order).
func naiveNearest(points []geom.Point, segs []geom.Seg, p geom.Point) (geom.Point, geom.Coord) {
	best := geom.Point{}
	bestD := geom.Coord(-1)
	consider := func(q geom.Point) {
		d := p.Manhattan(q)
		if bestD < 0 || d < bestD || (d == bestD && q.Less(best)) {
			best, bestD = q, d
		}
	}
	for _, q := range points {
		consider(q)
	}
	for _, s := range segs {
		b := s.Bounds()
		consider(geom.Pt(geom.Clamp(p.X, b.MinX, b.MaxX), geom.Clamp(p.Y, b.MinY, b.MaxY)))
	}
	return best, bestD
}

// naiveCrossing is the pre-index first-contact scan.
func naiveCrossing(points []geom.Point, segs []geom.Seg, from, to geom.Point) (geom.Point, bool) {
	travel := geom.S(from, to)
	d := travel.Dir()
	best := geom.Point{}
	bestD := geom.Coord(-1)
	consider := func(q geom.Point) {
		if !travel.Contains(q) {
			return
		}
		dist := from.Manhattan(q)
		if bestD < 0 || dist < bestD {
			best, bestD = q, dist
		}
	}
	for _, q := range points {
		consider(q)
	}
	for _, s := range segs {
		if !travel.Intersects(s) {
			continue
		}
		ov := travel.Bounds().Intersection(s.Bounds())
		var q geom.Point
		switch d {
		case geom.East, geom.North, geom.DirNone:
			q = geom.Pt(ov.MinX, ov.MinY)
		case geom.West:
			q = geom.Pt(ov.MaxX, ov.MinY)
		case geom.South:
			q = geom.Pt(ov.MinX, ov.MaxY)
		}
		consider(q)
	}
	if bestD < 0 {
		return geom.Point{}, false
	}
	return best, true
}

// naiveContains is the pre-index membership scan.
func naiveContains(points []geom.Point, segs []geom.Seg, p geom.Point) bool {
	for _, q := range points {
		if p == q {
			return true
		}
	}
	for _, s := range segs {
		if s.Contains(p) {
			return true
		}
	}
	return false
}

// randomTargets builds a random target set. Coordinates are drawn from a
// small range so distance ties, collinear overlaps, and shared edge
// coordinates occur constantly — the cases where the tie-break rules
// actually discriminate.
func randomTargets(r *rand.Rand) ([]geom.Point, []geom.Seg) {
	coord := func() geom.Coord { return geom.Coord(r.Intn(41) - 20) }
	pts := make([]geom.Point, r.Intn(24))
	for i := range pts {
		pts[i] = geom.Pt(coord(), coord())
	}
	segs := make([]geom.Seg, 0, 24)
	for i := r.Intn(24); i > 0; i-- {
		a := geom.Pt(coord(), coord())
		switch r.Intn(3) {
		case 0: // horizontal
			segs = append(segs, geom.S(a, geom.Pt(coord(), a.Y)))
		case 1: // vertical
			segs = append(segs, geom.S(a, geom.Pt(a.X, coord())))
		default: // degenerate
			segs = append(segs, geom.S(a, a))
		}
	}
	return pts, segs
}

// controlTreeTargets builds a target set shaped like the partial Steiner
// tree of a control net on a macro grid: a tall vertical trunk, laid down
// as collinear pieces the way successive attachments lay it, with 100–400
// short stubs whose far ends share a few x values, and the pins at those
// ends. Unlike randomTargets' small square sets, its hierarchy is several
// levels deep and the boxes along the trunk overlap.
func controlTreeTargets(r *rand.Rand) ([]geom.Point, []geom.Seg) {
	stubs := 100 + r.Intn(301)
	height := geom.Coord(stubs * (1 + r.Intn(3)))
	ends := []geom.Coord{-12, -6, -3, 3, 6, 12}
	var pts []geom.Point
	var segs []geom.Seg
	var y0 geom.Coord
	for i := 0; i < stubs; i++ {
		y := geom.Coord(r.Int63n(int64(height) + 1))
		if y > y0 && r.Intn(4) == 0 {
			segs = append(segs, geom.S(geom.Pt(0, y0), geom.Pt(0, y)))
			y0 = y
		}
		end := geom.Pt(ends[r.Intn(len(ends))], y)
		segs = append(segs, geom.S(geom.Pt(0, y), end))
		switch r.Intn(4) {
		case 0: // a jog to a pin just off the stub's line
			pin := geom.Pt(end.X, y+geom.Coord(r.Intn(5)-2))
			segs = append(segs, geom.S(end, pin))
			pts = append(pts, pin)
		case 1: // the attachment's own end as a degenerate segment
			segs = append(segs, geom.S(end, end))
		default:
			pts = append(pts, end)
		}
	}
	segs = append(segs, geom.S(geom.Pt(0, y0), geom.Pt(0, height)))
	return pts, segs
}

// nearOrFar draws a coordinate for a query against a set spanning [lo, hi]
// on that axis: mostly close to the span, sometimes far outside it.
func nearOrFar(r *rand.Rand, lo, hi geom.Coord) geom.Coord {
	switch r.Intn(8) {
	case 0:
		return lo - 50 - geom.Coord(r.Intn(5000))
	case 1:
		return hi + 50 + geom.Coord(r.Intn(5000))
	}
	return lo - 8 + geom.Coord(r.Int63n(int64(hi-lo)+17))
}

// preparedSet builds a targetSet the way RouteNet does and prepares it as
// routeConnection does before a search, so the queries answer from the
// hierarchy.
func preparedSet(pts []geom.Point, segs []geom.Seg) *targetSet {
	ts := &targetSet{}
	ts.addPoints(pts...)
	ts.addSegs(segs...)
	ts.prepare()
	return ts
}

// checkQueries compares every targetSet query with its naive reference at
// trials query points; x and y draw the query coordinates, and the free
// coordinate of axis-parallel travel segments, sometimes degenerate and
// sometimes starting on the target set itself.
func checkQueries(t *testing.T, label string, ts *targetSet, pts []geom.Point, segs []geom.Seg, r *rand.Rand, trials int, x, y func() geom.Coord) {
	t.Helper()
	for trial := 0; trial < trials; trial++ {
		p := geom.Pt(x(), y())

		gotQ, gotD := ts.nearest(p)
		wantQ, wantD := naiveNearest(pts, segs, p)
		if gotQ != wantQ || gotD != wantD {
			t.Fatalf("%s nearest(%v) = (%v,%d), naive (%v,%d)", label, p, gotQ, gotD, wantQ, wantD)
		}

		if got, want := ts.contains(p), naiveContains(pts, segs, p); got != want {
			t.Fatalf("%s contains(%v) = %v, naive %v", label, p, got, want)
		}

		to := p
		switch r.Intn(5) {
		case 0: // degenerate
		case 1, 2:
			to = geom.Pt(x(), p.Y)
		default:
			to = geom.Pt(p.X, y())
		}
		gotQ2, gotOK := ts.crossing(p, to)
		wantQ2, wantOK := naiveCrossing(pts, segs, p, to)
		if gotOK != wantOK || (gotOK && gotQ2 != wantQ2) {
			t.Fatalf("%s crossing(%v,%v) = (%v,%v), naive (%v,%v)",
				label, p, to, gotQ2, gotOK, wantQ2, wantOK)
		}
	}
}

// checkTargetSetAgainstNaive compares every query with its naive reference
// on one random set — a small square set for even seeds, a control-net
// tree for odd ones; shared by the quick.Check test and the fuzz target.
func checkTargetSetAgainstNaive(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	label := fmt.Sprintf("seed=%d", seed)
	if seed&1 != 0 {
		pts, segs := controlTreeTargets(r)
		b := segs[0].Bounds()
		for _, s := range segs {
			b = b.Union(s.Bounds())
		}
		x := func() geom.Coord { return nearOrFar(r, b.MinX, b.MaxX) }
		y := func() geom.Coord { return nearOrFar(r, b.MinY, b.MaxY) }
		checkQueries(t, label, preparedSet(pts, segs), pts, segs, r, 80, x, y)
		return
	}
	pts, segs := randomTargets(r)
	if len(pts)+len(segs) == 0 {
		return // routeConnection rejects empty target sets before querying
	}
	coord := func() geom.Coord { return geom.Coord(r.Intn(49) - 24) }
	checkQueries(t, label, preparedSet(pts, segs), pts, segs, r, 80, coord, coord)
}

func TestTargetSetIndexMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		checkTargetSetAgainstNaive(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 160}); err != nil {
		t.Error(err)
	}
}

// TestTargetSetNearestTieBreak pins the exact tie-break the hierarchy must
// preserve: among several targets at the same Manhattan distance the
// lexicographically smallest point wins, whatever order the boxes are
// visited in.
func TestTargetSetNearestTieBreak(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(5, 0), geom.Pt(0, 5), geom.Pt(-5, 0), geom.Pt(0, -5),
		geom.Pt(2, 3), geom.Pt(3, 2), geom.Pt(-2, -3),
	}
	segs := []geom.Seg{
		geom.S(geom.Pt(5, -7), geom.Pt(5, 7)),  // clamp (5,0), distance 5
		geom.S(geom.Pt(-9, 4), geom.Pt(-1, 4)), // clamp (-1,4), distance 5
	}
	ts := preparedSet(pts, segs)
	q, d := ts.nearest(geom.Pt(0, 0))
	if d != 5 || q != geom.Pt(-5, 0) {
		t.Fatalf("nearest tie-break = (%v,%d), want ((-5,0),5)", q, d)
	}
	wq, wd := naiveNearest(pts, segs, geom.Pt(0, 0))
	if wq != q || wd != d {
		t.Fatalf("naive reference disagrees: (%v,%d)", wq, wd)
	}
}

// TestTargetSetIncrementalSync grows one shared set the way RouteNet does —
// appending pins and tree segments round by round, prepared between
// rounds — and checks the rebuilt hierarchy against the naive scans
// after every round, with horizontal and vertical travel. It then resets
// the set and regrows it to the same element counts with different
// elements: a hierarchy rebuilt only when the counts change would still
// answer for the old set.
func TestTargetSetIncrementalSync(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ts := &targetSet{}
	var pts []geom.Point
	var segs []geom.Seg
	coord := func() geom.Coord { return geom.Coord(r.Intn(41) - 20) }
	grow := func(nPts, nSegs int) {
		for i := 0; i < nPts; i++ {
			p := geom.Pt(coord(), coord())
			pts = append(pts, p)
			ts.addPoints(p)
		}
		for i := 0; i < nSegs; i++ {
			a := geom.Pt(coord(), coord())
			var s geom.Seg
			if r.Intn(2) == 0 {
				s = geom.S(a, geom.Pt(coord(), a.Y))
			} else {
				s = geom.S(a, geom.Pt(a.X, coord()))
			}
			segs = append(segs, s)
			ts.addSegs(s)
		}
		ts.prepare() // as routeConnection does before every search
	}
	for round := 0; round < 12; round++ {
		grow(1+r.Intn(4), r.Intn(4))
		checkQueries(t, fmt.Sprintf("round %d", round), ts, pts, segs, r, 40, coord, coord)
	}
	nPts, nSegs := len(pts), len(segs)
	ts.reset()
	pts, segs = nil, nil
	grow(nPts, nSegs)
	checkQueries(t, "after reset", ts, pts, segs, r, 200, coord, coord)
}

// FuzzTargetSetQueries explores the same naive-vs-indexed comparison from
// arbitrary seeds; `go test` runs the corpus, `go test -fuzz` explores.
func FuzzTargetSetQueries(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -3, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkTargetSetAgainstNaive(t, seed)
	})
}
