package ray

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/plane"
)

// naiveCornerProjections is the pre-index generator: a full scan over every
// cell, kept here as the reference the corridor-restricted enumeration must
// reproduce exactly — including emission order, which feeds the search's
// deterministic tie-breaking.
func naiveCornerProjections(ix *plane.Index, at geom.Point, d geom.Dir, stop geom.Coord, emit func(geom.Point, geom.Dir)) {
	horiz := d.Horizontal()
	var lo, hi geom.Coord
	if horiz {
		lo, hi = geom.Min(at.X, stop), geom.Max(at.X, stop)
	} else {
		lo, hi = geom.Min(at.Y, stop), geom.Max(at.Y, stop)
	}
	for ci, n := 0, ix.NumCells(); ci < n; ci++ {
		c := ix.Cell(ci)
		if horiz {
			var cy geom.Coord
			switch {
			case at.Y <= c.MinY:
				cy = c.MinY
			case at.Y >= c.MaxY:
				cy = c.MaxY
			default:
				continue
			}
			for _, cx := range [2]geom.Coord{c.MinX, c.MaxX} {
				if cx <= lo || cx >= hi {
					continue
				}
				q := geom.Pt(cx, at.Y)
				if _, blocked := ix.SegBlocked(geom.S(geom.Pt(cx, cy), q)); !blocked {
					emit(q, d)
				}
			}
		} else {
			var cx geom.Coord
			switch {
			case at.X <= c.MinX:
				cx = c.MinX
			case at.X >= c.MaxX:
				cx = c.MaxX
			default:
				continue
			}
			for _, cy := range [2]geom.Coord{c.MinY, c.MaxY} {
				if cy <= lo || cy >= hi {
					continue
				}
				q := geom.Pt(at.X, cy)
				if _, blocked := ix.SegBlocked(geom.S(geom.Pt(cx, cy), q)); !blocked {
					emit(q, d)
				}
			}
		}
	}
}

// randomRects draws one obstacle field inside [0,200]², of one of four
// kinds: free rectangles that may overlap; a grid-aligned field whose cells
// share edge coordinates along whole rows and columns, like a macro grid;
// a tiling whose cells touch edge to edge without overlapping; and crossing
// bar pairs that overlap the way a polygon's double decomposition does.
func randomRects(r *rand.Rand) []geom.Rect {
	var rects []geom.Rect
	switch r.Intn(4) {
	case 0:
		for i := 0; i < r.Intn(14)+1; i++ {
			x, y := int64(r.Intn(180)), int64(r.Intn(180))
			w, h := int64(r.Intn(25)+1), int64(r.Intn(25)+1)
			rects = append(rects, geom.R(x, y, geom.Min(x+w, 200), geom.Min(y+h, 200)))
		}
	case 1:
		w, h := int64(r.Intn(20)+5), int64(r.Intn(20)+5)
		gap := int64(r.Intn(12) + 1)
		for y := int64(r.Intn(10)); y+h <= 200; y += h + gap {
			for x := int64(r.Intn(10)); x+w <= 200; x += w + gap {
				if r.Intn(5) != 0 {
					rects = append(rects, geom.R(x, y, x+w, y+h))
				}
			}
		}
	case 2:
		// Columns of random widths, each cut into rows of random heights:
		// neighbours share edges, and only some edge coordinates line up.
		for x := int64(0); x < 200; {
			x1 := geom.Min(x+int64(r.Intn(40)+5), 200)
			for y := int64(0); y < 200; {
				y1 := geom.Min(y+int64(r.Intn(40)+5), 200)
				if r.Intn(3) != 0 {
					rects = append(rects, geom.R(x, y, x1, y1))
				}
				y = y1
			}
			x = x1
		}
	default:
		for i := 0; i < r.Intn(6)+1; i++ {
			x, y := int64(r.Intn(150)), int64(r.Intn(150))
			w, h := int64(r.Intn(40)+10), int64(r.Intn(40)+10)
			t := int64(r.Intn(8) + 2)
			rects = append(rects,
				geom.R(x, y, x+w, y+t),             // horizontal bar
				geom.R(x+w/2-t/2, y, x+w/2+t, y+h)) // vertical bar crossing it
		}
	}
	return rects
}

// hit is one emission of the successor generator: a point, the direction of
// travel to it and the number of successors it stands for.
type hit struct {
	p geom.Point
	d geom.Dir
	n int
}

// checkCornerProjections compares the indexed enumeration against the naive
// scan for random rays over a random field; shared with the fuzz target.
// The naive scan emits one point per visible corner; the generator emits
// each corner line once, at its first position in the naive order, with
// the number of times the naive scan emits it. So the naive sequence is
// collapsed to each point's first occurrence and its count, and the two
// must agree in order, points and multiplicities.
func checkCornerProjections(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	bounds := geom.R(0, 0, 200, 200)
	rects := randomRects(r)
	if len(rects) == 0 {
		rects = append(rects, geom.R(90, 90, 110, 110))
	}
	ix, err := plane.New(bounds, rects)
	if err != nil {
		t.Fatal(err)
	}
	g := &Gen{Ix: ix}
	for trial := 0; trial < 50; trial++ {
		at := geom.Pt(int64(r.Intn(201)), int64(r.Intn(201)))
		if r.Intn(2) == 0 {
			// Search states sit on obstacle edges: cast from an edge or
			// corner coordinate, so rays run along edges and corner lines
			// pass through the ray origin.
			c := rects[r.Intn(len(rects))]
			at = geom.Pt([2]geom.Coord{c.MinX, c.MaxX}[r.Intn(2)], [2]geom.Coord{c.MinY, c.MaxY}[r.Intn(2)])
			switch r.Intn(3) {
			case 1:
				at.X = int64(r.Intn(201))
			case 2:
				at.Y = int64(r.Intn(201))
			}
		}
		d := geom.Dirs[r.Intn(4)]
		// A plausible ray stop: where the tracer would stop this ray.
		var limit geom.Coord
		if d == geom.East || d == geom.North {
			limit = 200
		}
		stop := ix.RayHit(at, d, limit).Stop
		var got, want []hit
		g.cornerProjections(at, d, stop, func(p geom.Point, d geom.Dir, n int) {
			got = append(got, hit{p, d, n})
		})
		first := map[geom.Point]int{} // point -> its index in want
		naiveCornerProjections(ix, at, d, stop, func(p geom.Point, d geom.Dir) {
			if i, ok := first[p]; ok {
				want[i].n++
				return
			}
			first[p] = len(want)
			want = append(want, hit{p, d, 1})
		})
		if len(got) != len(want) {
			t.Fatalf("seed=%d at=%v d=%v stop=%d: got %v, naive %v", seed, at, d, stop, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed=%d at=%v d=%v stop=%d: got %v, naive %v", seed, at, d, stop, got, want)
			}
		}
	}
}

// TestCornerProjectionsMatchNaive draws 480 fields. A quarter of them are
// free rectangles, cast from a uniform origin on half their 50 rays, so
// that kind alone gets about 3000 uniform rays.
func TestCornerProjectionsMatchNaive(t *testing.T) {
	f := func(seed int64) bool {
		checkCornerProjections(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 480}); err != nil {
		t.Error(err)
	}
}

func FuzzCornerProjections(f *testing.F) {
	for _, seed := range []int64{0, 3, 64, 4711, -11} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCornerProjections(t, seed)
	})
}
