package congest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/plane"
)

// This file pins the sweep-based extractor — plane-sweep facing-pair
// candidates plus interval-tree intrusion stabs — and the incremental
// ExtractEdit splice to the quadratic reference extractor, across
// randomized obstacle fields and random edits. Every field of every
// passage must match in the canonical order: Between, Rect, Vertical,
// Width, Capacity. The fuzz targets drive the identical comparisons from
// arbitrary seeds.

// separatedField builds a random interior-disjoint obstacle field (the
// domain the sweep is specified for — every valid rectangular-cell layout
// separates its cells) by rejection sampling. Touching edges are allowed:
// separation zero exercises the sweep's tie handling.
func separatedField(r *rand.Rand, bounds geom.Rect, n int) []geom.Rect {
	var rects []geom.Rect
	for try := 0; try < 40*n && len(rects) < n; try++ {
		w := geom.Coord(r.Intn(40) + 4)
		h := geom.Coord(r.Intn(40) + 4)
		x := bounds.MinX + geom.Coord(r.Int63n(int64(bounds.Width()-w+1)))
		y := bounds.MinY + geom.Coord(r.Int63n(int64(bounds.Height()-h+1)))
		c := geom.R(x, y, x+w, y+h)
		ok := true
		for _, e := range rects {
			if e.IntersectsStrict(c) {
				ok = false
				break
			}
		}
		if ok {
			rects = append(rects, c)
		}
	}
	return rects
}

// overlappingField allows arbitrary overlap — the polygon-decomposition
// shape of input, where Extract must fall back to the quadratic path.
func overlappingField(r *rand.Rand, bounds geom.Rect, n int) []geom.Rect {
	var rects []geom.Rect
	for i := 0; i < n; i++ {
		w := geom.Coord(r.Intn(50) + 2)
		h := geom.Coord(r.Intn(50) + 2)
		x := bounds.MinX + geom.Coord(r.Int63n(int64(bounds.Width()-w+1)))
		y := bounds.MinY + geom.Coord(r.Int63n(int64(bounds.Height()-h+1)))
		rects = append(rects, geom.R(x, y, x+w, y+h))
	}
	return rects
}

// passagesEqual compares two canonically sorted passage lists field by
// field.
func passagesEqual(t *testing.T, seed int64, what string, got, want []Passage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed=%d %s: %d passages, reference %d\ngot:  %+v\nwant: %+v",
			seed, what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed=%d %s: passage %d = %+v, reference %+v",
				seed, what, i, got[i], want[i])
		}
	}
}

// checkSweepAgainstNaive extracts one random field both ways and compares;
// shared by the quick.Check test and the fuzz target.
func checkSweepAgainstNaive(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	bounds := geom.R(0, 0, 300, 300)
	var rects []geom.Rect
	if r.Intn(4) == 0 {
		rects = overlappingField(r, bounds, r.Intn(14)+2)
	} else {
		rects = separatedField(r, bounds, r.Intn(20)+2)
	}
	ix, err := plane.New(bounds, rects)
	if err != nil {
		t.Fatal(err)
	}
	pitch := geom.Coord(r.Intn(12) + 1)
	got, err := Extract(ix, pitch)
	if err != nil {
		t.Fatal(err)
	}
	passagesEqual(t, seed, "Extract vs naive", got, extractNaive(ix, pitch))
}

func TestSweepExtractMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		checkSweepAgainstNaive(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// checkExtractEditAgainstFresh performs a random sequence of obstacle
// edits, splicing the passage list incrementally at every step and
// comparing it to a from-scratch extraction of the edited index. Each step
// takes one of ExtractEdit's two edit forms: an in-place move of a few
// obstacles (plane.Index.Replace, how the ECO layer moves a cell) or the
// removal of a few obstacles and the append of a few new ones
// (plane.Index.Edit).
func checkExtractEditAgainstFresh(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	bounds := geom.R(0, 0, 300, 300)
	rects := separatedField(r, bounds, r.Intn(16)+4)
	pitch := geom.Coord(r.Intn(10) + 1)
	ix, err := plane.New(bounds, rects)
	if err != nil {
		t.Fatal(err)
	}
	passages, err := Extract(ix, pitch)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		edit := removeAndAppend
		if r.Intn(2) == 0 {
			edit = moveInPlace
		}
		ix2, remap, removedRects, addedIDs := edit(t, r, ix)
		spliced, err := ExtractEdit(ix2, pitch, passages, remap, removedRects, addedIDs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Extract(ix2, pitch)
		if err != nil {
			t.Fatal(err)
		}
		passagesEqual(t, seed, "ExtractEdit vs fresh", spliced, fresh)
		ix, passages = ix2, spliced
	}
}

// separatedFrom reports whether c's interior meets none of rects except
// rects[skip].
func separatedFrom(c geom.Rect, rects []geom.Rect, skip int) bool {
	for i, e := range rects {
		if i != skip && e.IntersectsStrict(c) {
			return false
		}
	}
	return true
}

// moveInPlace translates a random subset of ix's obstacles in place,
// keeping the field separated and inside the bounds, and returns the
// edited index with ExtractEdit's arguments for it: the identity remap
// with -1 at the moved ids, their old rectangles, and the same ids as the
// added ones.
func moveInPlace(t *testing.T, r *rand.Rand, ix *plane.Index) (*plane.Index, []int32, []geom.Rect, []int) {
	cells := ix.Cells()
	remap := make([]int32, len(cells))
	for i := range remap {
		remap[i] = int32(i)
	}
	var ids []int
	var moved, removedRects []geom.Rect
	for id, c := range cells {
		if r.Intn(3) != 0 {
			continue
		}
		for try := 0; try < 20; try++ {
			m := c.Translate(geom.Pt(geom.Coord(r.Intn(41)-20), geom.Coord(r.Intn(41)-20)))
			if ix.Bounds().ContainsRect(m) && separatedFrom(m, cells, id) {
				cells[id], remap[id] = m, -1
				ids, moved, removedRects = append(ids, id), append(moved, m), append(removedRects, c)
				break
			}
		}
	}
	ix2, err := ix.Replace(ids, moved)
	if err != nil {
		t.Fatal(err)
	}
	return ix2, remap, removedRects, ids
}

// removeAndAppend removes a random subset of ix's obstacles (possibly
// empty, never everything) and appends a few rectangles separated from the
// survivors (the sweep's domain; an overlapping add would just exercise
// the tested fallback), and returns the edited index with ExtractEdit's
// arguments for it: Edit's remap, the removed rectangles, and the trailing
// ids of the added ones.
func removeAndAppend(t *testing.T, r *rand.Rand, ix *plane.Index) (*plane.Index, []int32, []geom.Rect, []int) {
	n := ix.NumCells()
	bounds := ix.Bounds()
	var removed []int
	var removedRects, survivors []geom.Rect
	for id := 0; id < n; id++ {
		if n > 1 && r.Intn(4) == 0 {
			removed = append(removed, id)
			removedRects = append(removedRects, ix.Cell(id))
		} else {
			survivors = append(survivors, ix.Cell(id))
		}
	}
	var added []geom.Rect
	for try := 0; try < 60 && len(added) < r.Intn(3)+1; try++ {
		w := geom.Coord(r.Intn(40) + 4)
		h := geom.Coord(r.Intn(40) + 4)
		x := geom.Coord(r.Int63n(int64(bounds.Width() - w + 1)))
		y := geom.Coord(r.Int63n(int64(bounds.Height() - h + 1)))
		c := geom.R(x, y, x+w, y+h)
		if separatedFrom(c, survivors, -1) && separatedFrom(c, added, -1) {
			added = append(added, c)
		}
	}
	ix2, remap, err := ix.Edit(removed, added)
	if err != nil {
		t.Fatal(err)
	}
	addedIDs := make([]int, len(added))
	for k := range added {
		addedIDs[k] = ix2.NumCells() - len(added) + k
	}
	return ix2, remap, removedRects, addedIDs
}

func TestExtractEditMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		checkExtractEditAgainstFresh(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCapacityRule tables the passage capacity formula: wires may hug both
// corridor walls and keep a pitch from each other — gap/pitch + 1 — but a
// corridor narrower than one pitch fits nothing (the seed's rounding
// granted it a phantom wire), so capacity is never exactly 1.
func TestCapacityRule(t *testing.T) {
	cases := []struct {
		width, pitch geom.Coord
		want         int
	}{
		{1, 8, 0},  // sub-pitch sliver: nothing fits
		{7, 8, 0},  // still one short of a pitch
		{8, 8, 2},  // exactly one pitch: a wire on each wall
		{9, 8, 2},  // no room for a third
		{12, 8, 2}, // the macro-grid gap at the default pitch
		{16, 8, 3}, // both walls plus one mid-corridor
		{20, 4, 6},
		{4, 5, 0}, // the tight-funnel slit: too narrow to thread
		{5, 5, 2},
		{1, 1, 2}, // pitch 1: every corridor fits width+1 wires
	}
	for _, c := range cases {
		if got := capacityFor(c.width, c.pitch); got != c.want {
			t.Errorf("capacityFor(width=%d, pitch=%d) = %d, want %d",
				c.width, c.pitch, got, c.want)
		}
		if got := capacityFor(c.width, c.pitch); got == 1 {
			t.Errorf("capacityFor(width=%d, pitch=%d) = 1: capacity 1 must be impossible",
				c.width, c.pitch)
		}
	}
}

// FuzzSweepExtract explores the sweep-vs-naive comparison from arbitrary
// seeds.
func FuzzSweepExtract(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -3, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSweepAgainstNaive(t, seed)
	})
}

// FuzzExtractEdit explores the incremental-splice-vs-fresh comparison from
// arbitrary seeds.
func FuzzExtractEdit(f *testing.F) {
	for _, seed := range []int64{0, 2, 11, 99, -8, 1 << 29} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkExtractEditAgainstFresh(t, seed)
	})
}
