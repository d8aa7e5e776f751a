package plane

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/layout"
)

// polyAndRectLayout mixes a rectangular cell with an L-shaped polygon cell,
// so the per-cell obstacle spans have width 1 and width > 1.
func polyAndRectLayout() *layout.Layout {
	l := &layout.Layout{
		Name:   "mixed",
		Bounds: geom.R(0, 0, 200, 200),
		Cells: []layout.Cell{
			{Name: "r", Box: geom.R(10, 10, 40, 40)},
			{Name: "L", Poly: []geom.Point{
				geom.Pt(60, 60), geom.Pt(120, 60), geom.Pt(120, 90),
				geom.Pt(90, 90), geom.Pt(90, 120), geom.Pt(60, 120),
			}},
			{Name: "r2", Box: geom.R(150, 150, 180, 180)},
		},
		Nets: []layout.Net{{
			Name: "n",
			Terminals: []layout.Terminal{
				{Name: "a", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(10, 10), Cell: 0}}},
				{Name: "b", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(150, 150), Cell: 2}}},
			},
		}},
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return l
}

// TestEditMatchesFreshIndex pins the incremental Edit (remove + add) to a
// from-scratch New over the same final obstacle set: the compact
// renumbering keeps survivors in order followed by the additions, so every
// query — including the returned cell ids — must agree exactly.
func TestEditMatchesFreshIndex(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base, baseRects := randomField(r, r.Intn(12)+2)
		// Remove a random subset (possibly empty), add a random batch.
		var removed []int
		var survivors []geom.Rect
		for i, rect := range baseRects {
			if r.Intn(3) == 0 {
				removed = append(removed, i)
			} else {
				survivors = append(survivors, rect)
			}
		}
		var added []geom.Rect
		for i := 0; i < r.Intn(6)+1; i++ {
			x, y := int64(r.Intn(180)), int64(r.Intn(180))
			w, h := int64(r.Intn(30)+1), int64(r.Intn(30)+1)
			added = append(added, geom.R(x, y, geom.Min(x+w, 200), geom.Min(y+h, 200)))
		}
		edited, remap, err := base.Edit(removed, added)
		if err != nil {
			t.Fatal(err)
		}
		// The returned remap must renumber survivors compactly in order and
		// mark removals with -1.
		if len(remap) != base.NumCells() {
			t.Fatalf("seed=%d: remap covers %d ids, base has %d", seed, len(remap), base.NumCells())
		}
		next := int32(0)
		for id, r := range remap {
			if contains(removed, id) {
				if r != -1 {
					t.Fatalf("seed=%d: removed id %d remaps to %d, want -1", seed, id, r)
				}
				continue
			}
			if r != next {
				t.Fatalf("seed=%d: survivor %d remaps to %d, want %d", seed, id, r, next)
			}
			if base.Cell(id) != edited.Cell(int(r)) {
				t.Fatalf("seed=%d: remap sends %v to slot holding %v", seed, base.Cell(id), edited.Cell(int(r)))
			}
			next++
		}
		all := append(append([]geom.Rect(nil), survivors...), added...)
		fresh, err := New(base.Bounds(), all)
		if err != nil {
			t.Fatal(err)
		}
		if edited.NumCells() != fresh.NumCells() {
			t.Fatalf("seed=%d: Edit has %d cells, fresh %d", seed, edited.NumCells(), fresh.NumCells())
		}
		for i := 0; i < fresh.NumCells(); i++ {
			if edited.Cell(i) != fresh.Cell(i) {
				t.Fatalf("seed=%d: cell %d is %v, fresh %v", seed, i, edited.Cell(i), fresh.Cell(i))
			}
		}
		for trial := 0; trial < 60; trial++ {
			p := interestingPoint(r, all)
			ec, eb := edited.PointBlocked(p)
			fc, fb := fresh.PointBlocked(p)
			if ec != fc || eb != fb {
				t.Fatalf("seed=%d Edit PointBlocked(%v) = (%d,%v), fresh (%d,%v)",
					seed, p, ec, eb, fc, fb)
			}
			ebc := edited.BoundaryCells(p, nil)
			fbc := fresh.BoundaryCells(p, nil)
			if len(ebc) != len(fbc) {
				t.Fatalf("seed=%d Edit BoundaryCells(%v) = %v, fresh %v", seed, p, ebc, fbc)
			}
			for i := range ebc {
				if ebc[i] != fbc[i] {
					t.Fatalf("seed=%d Edit BoundaryCells(%v) = %v, fresh %v", seed, p, ebc, fbc)
				}
			}
			d := geom.Dirs[r.Intn(4)]
			var limit geom.Coord
			if d == geom.East || d == geom.North {
				limit = 200
			}
			eh := edited.RayHit(p, d, limit)
			fh := fresh.RayHit(p, d, limit)
			if eh.Blocked != fh.Blocked || eh.Stop != fh.Stop || eh.Cell != fh.Cell {
				t.Fatalf("seed=%d Edit RayHit(%v,%v) = %+v, fresh %+v", seed, p, d, eh, fh)
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

func TestEditRejectsBadInput(t *testing.T) {
	ix, err := New(geom.R(0, 0, 100, 100), []geom.Rect{geom.R(10, 10, 20, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Edit([]int{1}, nil); err == nil {
		t.Fatal("out-of-range removal must be rejected")
	}
	if _, _, err := ix.Edit([]int{0}, []geom.Rect{geom.R(5, 5, 5, 30)}); err == nil {
		t.Fatal("degenerate addition must be rejected")
	}
}

// TestReplaceMatchesNew pins Replace to New over the receiver's rectangle
// list with the replaced entries swapped in: the same cells id for id, the
// same corner tables and interval trees, and the same query answers. No id
// moves, which is what lets a cell move keep its obstacles' ids.
func TestReplaceMatchesNew(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base, rects := randomField(r, r.Intn(12)+2)
		all := append([]geom.Rect(nil), rects...)
		var ids []int
		var repl []geom.Rect
		for _, id := range r.Perm(len(rects))[:r.Intn(len(rects))+1] {
			next := rects[id].Translate(geom.Pt(int64(r.Intn(21)-10), int64(r.Intn(21)-10)))
			if r.Intn(3) == 0 { // a rectangle of another size elsewhere
				x, y := int64(r.Intn(180)), int64(r.Intn(180))
				next = geom.R(x, y, x+int64(r.Intn(30)+1), y+int64(r.Intn(30)+1))
			}
			ids, repl, all[id] = append(ids, id), append(repl, next), next
		}
		got, err := base.Replace(ids, repl)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(base.Bounds(), all)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.cells, fresh.cells) {
			t.Fatalf("seed=%d: Replace cells %v, fresh %v", seed, got.cells, fresh.cells)
		}
		if !slices.Equal(got.cornersX, fresh.cornersX) || !slices.Equal(got.cornersY, fresh.cornersY) {
			t.Fatalf("seed=%d: Replace corner tables differ from fresh", seed)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("seed=%d: Replace interval trees differ from fresh", seed)
		}
		if !slices.Equal(base.cells, rects) {
			t.Fatalf("seed=%d: Replace wrote its receiver", seed)
		}
		for trial := 0; trial < 60; trial++ {
			p := interestingPoint(r, all)
			gc, gb := got.PointBlocked(p)
			fc, fb := fresh.PointBlocked(p)
			if gc != fc || gb != fb {
				t.Fatalf("seed=%d Replace PointBlocked(%v) = (%d,%v), fresh (%d,%v)", seed, p, gc, gb, fc, fb)
			}
			if g, w := got.BoundaryCells(p, nil), fresh.BoundaryCells(p, nil); !slices.Equal(g, w) {
				t.Fatalf("seed=%d Replace BoundaryCells(%v) = %v, fresh %v", seed, p, g, w)
			}
			d := geom.Dirs[r.Intn(4)]
			if g, w := got.RayHit(p, d, 100), fresh.RayHit(p, d, 100); g != w {
				t.Fatalf("seed=%d Replace RayHit(%v,%v) = %+v, fresh %+v", seed, p, d, g, w)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReplaceRejectsBadInput(t *testing.T) {
	ix, err := New(geom.R(0, 0, 100, 100), []geom.Rect{geom.R(10, 10, 20, 20), geom.R(40, 40, 50, 50)})
	if err != nil {
		t.Fatal(err)
	}
	ok := geom.R(60, 60, 70, 70)
	for _, tc := range []struct {
		name  string
		ids   []int
		rects []geom.Rect
	}{
		{"more ids than rectangles", []int{0, 1}, []geom.Rect{ok}},
		{"out of range", []int{2}, []geom.Rect{ok}},
		{"negative", []int{-1}, []geom.Rect{ok}},
		{"repeated", []int{1, 1}, []geom.Rect{ok, ok}},
		{"degenerate", []int{0}, []geom.Rect{geom.R(5, 5, 5, 30)}},
	} {
		if _, err := ix.Replace(tc.ids, tc.rects); err == nil {
			t.Errorf("%s: Replace accepted it", tc.name)
		}
	}
}

// BenchmarkMoveOneCell times a one-cell move on n×n macro grids (40×30
// cells, 12-unit gaps, the MacroGrid geometry) in both edit forms: Replace,
// which the ECO layer runs, and Edit's removal and re-append.
func BenchmarkMoveOneCell(b *testing.B) {
	for _, n := range []int64{32, 64} {
		var rects []geom.Rect
		for r := int64(0); r < n; r++ {
			for c := int64(0); c < n; c++ {
				x, y := 12+c*52, 12+r*42
				rects = append(rects, geom.R(x, y, x+40, y+30))
			}
		}
		ix, err := New(geom.R(0, 0, 12+n*52, 12+n*42), rects)
		if err != nil {
			b.Fatal(err)
		}
		id := int(n*n/2 + n/2)
		moved := []geom.Rect{rects[id].Translate(geom.Pt(2, 0))}
		b.Run(fmt.Sprintf("replace/%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.Replace([]int{id}, moved); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("edit/%dx%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Edit([]int{id}, moved); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// contains reports whether xs (small) holds v.
func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestFromLayoutSpansCoverObstacles(t *testing.T) {
	// Spans must tile the obstacle id space in cell order.
	l := polyAndRectLayout()
	ix, spans, err := FromLayoutSpans(l)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for ci, s := range spans {
		if s[0] != next {
			t.Fatalf("cell %d span starts at %d, want %d", ci, s[0], next)
		}
		if got := len(l.Cells[ci].ObstacleRects()); s[1]-s[0] != got {
			t.Fatalf("cell %d span width %d, want %d", ci, s[1]-s[0], got)
		}
		for id := s[0]; id < s[1]; id++ {
			want := l.Cells[ci].ObstacleRects()[id-s[0]]
			if ix.Cell(id) != want {
				t.Fatalf("obstacle %d is %v, want %v", id, ix.Cell(id), want)
			}
		}
		next = s[1]
	}
	if next != ix.NumCells() {
		t.Fatalf("spans cover %d obstacles, index has %d", next, ix.NumCells())
	}
}
