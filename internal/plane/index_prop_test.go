package plane

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// This file pins the indexed queries — PointBlocked (interval-tree stab),
// BoundaryCells (corner-table lookup), and the corner-range enumeration —
// to brute-force reference scans over randomized obstacle fields, the same
// technique TestRayHitMatchesNaive uses for the ray tracer. The fuzz
// targets in fuzz_test.go drive the identical comparisons from arbitrary
// seeds.

// randomField builds a random obstacle index; overlapping rectangles are
// deliberately allowed (the sequential baseline overlays routed-net rects
// that may overlap anything). One field in three is instead n cells of a
// grid (fewer when the grid has fewer slots), which are pairwise disjoint,
// share edge coordinates along rows and columns, and touch edge to edge
// when the grid's gap is 0.
func randomField(r *rand.Rand, n int) (*Index, []geom.Rect) {
	bounds := geom.R(0, 0, 200, 200)
	var rects []geom.Rect
	if r.Intn(3) == 0 {
		w, h, gap := int64(r.Intn(30)+5), int64(r.Intn(30)+5), int64(r.Intn(4))
		cols, rows := 200/(w+gap), 200/(h+gap)
		for _, k := range r.Perm(int(cols * rows))[:min(n, int(cols*rows))] {
			x, y := int64(k)%cols*(w+gap), int64(k)/cols*(h+gap)
			rects = append(rects, geom.R(x, y, x+w, y+h))
		}
	} else {
		for i := 0; i < n; i++ {
			x, y := int64(r.Intn(180)), int64(r.Intn(180))
			w, h := int64(r.Intn(25)+1), int64(r.Intn(25)+1)
			rects = append(rects, geom.R(x, y, geom.Min(x+w, 200), geom.Min(y+h, 200)))
		}
	}
	ix, err := New(bounds, rects)
	if err != nil {
		panic(err)
	}
	return ix, rects
}

// interestingPoint samples query points biased onto obstacle edges and
// corners, where the boundary/containment predicates actually discriminate.
func interestingPoint(r *rand.Rand, rects []geom.Rect) geom.Point {
	if len(rects) > 0 && r.Intn(4) != 0 {
		c := rects[r.Intn(len(rects))]
		xs := [3]geom.Coord{c.MinX, c.MaxX, c.MinX + int64(r.Intn(int(c.Width()+1)))}
		ys := [3]geom.Coord{c.MinY, c.MaxY, c.MinY + int64(r.Intn(int(c.Height()+1)))}
		return geom.Pt(xs[r.Intn(3)], ys[r.Intn(3)])
	}
	return geom.Pt(int64(r.Intn(201)), int64(r.Intn(201)))
}

// naivePointBlocked is the pre-index linear scan.
func naivePointBlocked(rects []geom.Rect, p geom.Point) (int, bool) {
	for i, c := range rects {
		if c.ContainsStrict(p) {
			return i, true
		}
	}
	return -1, false
}

// naiveBoundaryCells is the pre-index linear scan.
func naiveBoundaryCells(rects []geom.Rect, p geom.Point, dst []int) []int {
	for i, c := range rects {
		if c.Contains(p) && !c.ContainsStrict(p) {
			dst = append(dst, i)
		}
	}
	return dst
}

// naiveCornerRange enumerates corner entries in the open interval by scan.
func naiveCornerRange(rects []geom.Rect, vertical bool, lo, hi geom.Coord) []Corner {
	var out []Corner
	for i, c := range rects {
		if vertical {
			for _, x := range [2]geom.Coord{c.MinX, c.MaxX} {
				if lo < x && x < hi {
					out = append(out, Corner{At: x, Cell: int32(i)})
				}
			}
		} else {
			for _, y := range [2]geom.Coord{c.MinY, c.MaxY} {
				if lo < y && y < hi {
					out = append(out, Corner{At: y, Cell: int32(i)})
				}
			}
		}
	}
	// The indexed enumeration is (coordinate, cell)-ordered.
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && cornerLess(out[b], out[b-1]); b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

// naiveSegFree reports whether the axis-parallel segment from a to b meets
// no obstacle interior, by scan. A rectangle's open interior meets the
// closed segment exactly when the segment's fixed coordinate lies strictly
// inside the rectangle's span on that axis and the open span on the other
// axis overlaps the segment's closed extent (for a degenerate segment: the
// point lies strictly inside).
func naiveSegFree(rects []geom.Rect, a, b geom.Point) bool {
	for _, c := range rects {
		if a.X == b.X {
			if c.MinX < a.X && a.X < c.MaxX && c.MinY < geom.Max(a.Y, b.Y) && c.MaxY > geom.Min(a.Y, b.Y) {
				return false
			}
		} else if c.MinY < a.Y && a.Y < c.MaxY && c.MinX < geom.Max(a.X, b.X) && c.MaxX > geom.Min(a.X, b.X) {
			return false
		}
	}
	return true
}

// naiveRectIntersects is the brute-force reference for RectIntersects.
func naiveRectIntersects(rects []geom.Rect, r geom.Rect, exclude ...int) bool {
	if !r.IsValid() || r.Width() <= 0 || r.Height() <= 0 {
		return false
	}
	for i, c := range rects {
		skip := false
		for _, e := range exclude {
			if i == e {
				skip = true
				break
			}
		}
		if !skip && c.IntersectsStrict(r) {
			return true
		}
	}
	return false
}

// naiveOverlapping is the brute-force reference for AppendX/YOverlapping,
// sorted ascending for set comparison.
func naiveOverlapping(rects []geom.Rect, xAxis bool, lo, hi geom.Coord) []int32 {
	if hi <= lo {
		return nil // the open interval is empty
	}
	var out []int32
	for i, c := range rects {
		l, h := c.MinX, c.MaxX
		if !xAxis {
			l, h = c.MinY, c.MaxY
		}
		if l < hi && h > lo {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkIndexAgainstNaive runs every indexed query against its reference on
// one random field; shared by the quick.Check test and the fuzz targets.
func checkIndexAgainstNaive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ix, rects := randomField(r, r.Intn(16)+1)
	for trial := 0; trial < 60; trial++ {
		p := interestingPoint(r, rects)

		gotCell, gotB := ix.PointBlocked(p)
		wantCell, wantB := naivePointBlocked(rects, p)
		if gotCell != wantCell || gotB != wantB {
			t.Fatalf("seed=%d PointBlocked(%v) = (%d,%v), naive (%d,%v)",
				seed, p, gotCell, gotB, wantCell, wantB)
		}

		got := ix.BoundaryCells(p, nil)
		want := naiveBoundaryCells(rects, p, nil)
		if len(got) != len(want) {
			t.Fatalf("seed=%d BoundaryCells(%v) = %v, naive %v", seed, p, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed=%d BoundaryCells(%v) = %v, naive %v", seed, p, got, want)
			}
		}

		// RayHit runs on the interval trees (the y-span twin for horizontal
		// rays); pin Stop/Blocked to the brute-force scan. The blocking cell
		// id is unspecified when several cells share the stopping edge, so it
		// is not compared.
		d := geom.Dirs[r.Intn(4)]
		limit := geom.Coord(r.Intn(221) - 10)
		gotH := ix.RayHit(p, d, limit)
		wantH := naiveRay(ix.Bounds(), rects, p, d, limit)
		if gotH.Blocked != wantH.Blocked || gotH.Stop != wantH.Stop {
			t.Fatalf("seed=%d RayHit(%v,%v,%d) = %+v, naive %+v", seed, p, d, limit, gotH, wantH)
		}

		// FreeExtent: the one stab must answer every segment from p along
		// the line, against the scan, and agree with SegBlocked walked
		// either way for targets inside the bounds. Targets come from
		// obstacle edges and corners half the time, where strictness bites.
		for _, vertical := range [2]bool{true, false} {
			flo, fhi := ix.FreeExtent(p, vertical)
			tp := interestingPoint(r, rects)
			q := geom.Pt(tp.X, p.Y)
			tc := tp.X
			if vertical {
				q, tc = geom.Pt(p.X, tp.Y), tp.Y
			}
			if r.Intn(4) == 0 {
				tc = geom.Coord(r.Intn(221) - 10) // beyond the bounds too
				if vertical {
					q.Y = tc
				} else {
					q.X = tc
				}
			}
			free := flo <= tc && tc <= fhi
			if want := naiveSegFree(rects, p, q); free != want {
				t.Fatalf("seed=%d FreeExtent(%v, vertical=%v) = [%d,%d]: segment to %v free=%v, scan %v",
					seed, p, vertical, flo, fhi, q, free, want)
			}
			if ix.InBounds(q) {
				_, fwd := ix.SegBlocked(geom.S(p, q))
				_, back := ix.SegBlocked(geom.S(q, p))
				if fwd == free || back == free {
					t.Fatalf("seed=%d FreeExtent(%v, vertical=%v) = [%d,%d]: segment to %v free=%v, SegBlocked fwd=%v back=%v",
						seed, p, vertical, flo, fhi, q, free, fwd, back)
				}
			}
		}

		// RectIntersects: random query rects, biased to touch obstacle edges
		// (interestingPoint corners) so the strictness boundary is exercised;
		// random exclusions, including the degenerate zero-area rect.
		qa, qb := interestingPoint(r, rects), interestingPoint(r, rects)
		qr := geom.R(geom.Min(qa.X, qb.X), geom.Min(qa.Y, qb.Y),
			geom.Max(qa.X, qb.X), geom.Max(qa.Y, qb.Y))
		var excl []int
		for k := r.Intn(3); k > 0; k-- {
			excl = append(excl, r.Intn(len(rects)+2)-1) // may be out of range
		}
		if got, want := ix.RectIntersects(qr, excl...), naiveRectIntersects(rects, qr, excl...); got != want {
			t.Fatalf("seed=%d RectIntersects(%v, %v) = %v, naive %v", seed, qr, excl, got, want)
		}

		// AppendX/YOverlapping: unordered id sets vs the linear scan.
		for _, xAxis := range [2]bool{true, false} {
			olo := geom.Coord(r.Intn(220) - 10)
			ohi := olo + geom.Coord(r.Intn(120)) - 10 // sometimes empty/inverted
			var gotIDs []int32
			if xAxis {
				gotIDs = ix.AppendXOverlapping(nil, olo, ohi)
			} else {
				gotIDs = ix.AppendYOverlapping(nil, olo, ohi)
			}
			sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
			wantIDs := naiveOverlapping(rects, xAxis, olo, ohi)
			if len(gotIDs) != len(wantIDs) {
				t.Fatalf("seed=%d overlapping(x=%v, %d..%d) = %v, naive %v",
					seed, xAxis, olo, ohi, gotIDs, wantIDs)
			}
			for i := range gotIDs {
				if gotIDs[i] != wantIDs[i] {
					t.Fatalf("seed=%d overlapping(x=%v, %d..%d) = %v, naive %v",
						seed, xAxis, olo, ohi, gotIDs, wantIDs)
				}
			}
		}

		lo := geom.Coord(r.Intn(220) - 10)
		hi := lo + geom.Coord(r.Intn(120))
		for _, vertical := range [2]bool{true, false} {
			var gotC []Corner
			if vertical {
				gotC = ix.AppendCornersX(nil, lo, hi)
			} else {
				gotC = ix.AppendCornersY(nil, lo, hi)
			}
			wantC := naiveCornerRange(rects, vertical, lo, hi)
			if len(gotC) != len(wantC) {
				t.Fatalf("seed=%d corners(vert=%v, %d..%d) = %v, naive %v",
					seed, vertical, lo, hi, gotC, wantC)
			}
			for i := range gotC {
				if gotC[i] != wantC[i] {
					t.Fatalf("seed=%d corners(vert=%v, %d..%d) = %v, naive %v",
						seed, vertical, lo, hi, gotC, wantC)
				}
			}
		}
	}
}

func TestIndexedQueriesMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		checkIndexAgainstNaive(t, seed)
		return !t.Failed()
	}
	// Two fields in three are free rectangles (see randomField), so 90
	// draws give that kind 60.
	if err := quick.Check(f, &quick.Config{MaxCount: 90}); err != nil {
		t.Error(err)
	}
}

// TestOverlayMatchesFreshIndex pins an additions-only Edit to an index
// built from scratch over the same cells: every query must agree, because
// Edit(nil, wires) is what the sequential baseline leans on once per routed net.
func TestOverlayMatchesFreshIndex(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base, baseRects := randomField(r, r.Intn(10)+1)
		var extra []geom.Rect
		for i := 0; i < r.Intn(8)+1; i++ {
			x, y := int64(r.Intn(180)), int64(r.Intn(180))
			w, h := int64(r.Intn(30)+1), int64(r.Intn(30)+1)
			extra = append(extra, geom.R(x, y, geom.Min(x+w, 200), geom.Min(y+h, 200)))
		}
		merged, _, err := base.Edit(nil, extra)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append([]geom.Rect(nil), baseRects...), extra...)
		fresh, err := New(base.Bounds(), all)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 60; trial++ {
			p := interestingPoint(r, all)
			mc, mb := merged.PointBlocked(p)
			fc, fb := fresh.PointBlocked(p)
			if mc != fc || mb != fb {
				t.Fatalf("seed=%d Overlay PointBlocked(%v) = (%d,%v), fresh (%d,%v)",
					seed, p, mc, mb, fc, fb)
			}
			mbc := merged.BoundaryCells(p, nil)
			fbc := fresh.BoundaryCells(p, nil)
			if len(mbc) != len(fbc) {
				t.Fatalf("seed=%d Overlay BoundaryCells(%v) = %v, fresh %v", seed, p, mbc, fbc)
			}
			for i := range mbc {
				if mbc[i] != fbc[i] {
					t.Fatalf("seed=%d Overlay BoundaryCells(%v) = %v, fresh %v", seed, p, mbc, fbc)
				}
			}
			d := geom.Dirs[r.Intn(4)]
			var limit geom.Coord
			if d == geom.East || d == geom.North {
				limit = 200
			}
			mh := merged.RayHit(p, d, limit)
			fh := fresh.RayHit(p, d, limit)
			if mh.Blocked != fh.Blocked || mh.Stop != fh.Stop {
				t.Fatalf("seed=%d Overlay RayHit(%v,%v) = %+v, fresh %+v", seed, p, d, mh, fh)
			}
		}
		return true
	}
	// Two base fields in three are free rectangles (see randomField), so
	// 60 draws give that kind 40.
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPointBlocked(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	var rects []geom.Rect
	for i := 0; i < 400; i++ {
		x, y := int64(r.Intn(1900)), int64(r.Intn(1900))
		rects = append(rects, geom.R(x, y, x+int64(r.Intn(60)+10), y+int64(r.Intn(60)+10)))
	}
	ix, err := New(geom.R(0, 0, 2000, 2000), rects)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.PointBlocked(geom.Pt(int64(i%2000), int64((i*13)%2000)))
	}
}

func BenchmarkBoundaryCells(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	var rects []geom.Rect
	for i := 0; i < 400; i++ {
		x, y := int64(r.Intn(1900)), int64(r.Intn(1900))
		rects = append(rects, geom.R(x, y, x+int64(r.Intn(60)+10), y+int64(r.Intn(60)+10)))
	}
	ix, err := New(geom.R(0, 0, 2000, 2000), rects)
	if err != nil {
		b.Fatal(err)
	}
	var buf [8]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rects[i%len(rects)]
		ix.BoundaryCells(geom.Pt(c.MinX, c.MinY+1), buf[:0])
	}
}
