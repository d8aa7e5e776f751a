package layout

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestBoxIndexMatchesScan compares every answer of the box index with a
// scan of all boxes. The boxes are random on a small lattice, so answers
// run from empty to nearly every box and take both sort paths, query after
// query on one index.
func TestBoxIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		span := 1 + r.Intn(60)
		cells := make([]Cell, r.Intn(300))
		for i := range cells {
			x, y := geom.Coord(r.Intn(span)), geom.Coord(r.Intn(span))
			cells[i].Box = geom.R(x, y, x+1+geom.Coord(r.Intn(span)), y+1+geom.Coord(r.Intn(span)))
		}
		ix := newBoxIndex(cells)
		for i := range cells {
			var want []int32
			for j := i + 1; j < len(cells); j++ {
				if cells[i].Box.Intersects(cells[j].Box) {
					want = append(want, int32(j))
				}
			}
			if got := ix.meeting(i); !slices.Equal(got, want) {
				t.Fatalf("trial %d: meeting(%d) = %v, want %v", trial, i, got, want)
			}
		}
		for k := 0; k < 50; k++ {
			p := geom.Pt(geom.Coord(r.Intn(2*span+2)-1), geom.Coord(r.Intn(2*span+2)-1))
			var want []int32
			for j := range cells {
				if cells[j].Box.ContainsStrict(p) {
					want = append(want, int32(j))
				}
			}
			if got := ix.around(p); !slices.Equal(got, want) {
				t.Fatalf("trial %d: around(%v) = %v, want %v", trial, p, got, want)
			}
		}
	}
}
