package router

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/plane"
)

// TestCostModelsNeverPriceBelowLength: LengthCost, CornerCost and
// PenaltyCost price every segment along a ray at no less than Scale times
// its length, the bound the router offers each successor with, and the
// ray's price at every distance is Scale times the distance plus the fixed
// cost plus the tolls reached there.
func TestCostModelsNeverPriceBelowLength(t *testing.T) {
	l, err := gen.MacroGrid(4, 4, 40, 30, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name string
		m    CostModel
	}{
		{"length", LengthCost{}},
		{"corner", CornerCost{Ix: ix}},
		{"corner-eps7", CornerCost{Ix: ix, Epsilon: 7}},
		{"penalty-none", PenaltyCost{}},
		{"penalty", PenaltyCost{Penalty: stripePenalty}},
		{"corner+penalty", PenaltyCost{Base: CornerCost{Ix: ix}, Penalty: stripePenalty}},
	}
	b := ix.Bounds()
	r := rand.New(rand.NewSource(1))
	dirs := append([]geom.Dir{geom.DirNone}, geom.Dirs[:]...)
	var rp rayPrice
	rays := 0
	for rays < 2000 {
		from := geom.Pt(b.MinX+geom.Coord(r.Int63n(int64(b.MaxX-b.MinX+1))), b.MinY+geom.Coord(r.Int63n(int64(b.MaxY-b.MinY+1))))
		if _, blocked := ix.PointBlocked(from); blocked {
			continue
		}
		d := geom.Dirs[r.Intn(len(geom.Dirs))]
		in := dirs[r.Intn(len(dirs))]
		limit := map[geom.Dir]geom.Coord{geom.East: b.MaxX, geom.West: b.MinX, geom.North: b.MaxY, geom.South: b.MinY}[d]
		stop := ix.RayHit(from, d, limit).Stop
		length := stop - from.X
		if !d.Horizontal() {
			length = stop - from.Y
		}
		length = max(length, -length)
		if length == 0 {
			continue
		}
		rays++
		for _, model := range models {
			name, m := model.name, model.m
			fixed, tolls := m.Ray(nil, from, in, d, stop)
			rp.eval(m, from, in, d, stop)
			for step := geom.Coord(0); step < 40; step++ {
				tl := 1 + (length-1)*step/39
				want := Scale*tl + fixed
				for _, toll := range tolls {
					if toll.At <= tl {
						want += toll.Cost
					}
				}
				got := rp.cost(tl)
				if got < Scale*tl {
					t.Fatalf("%s: ray from %v %v (in %v) prices length %d at %d, below Scale times it", name, from, d, in, tl, got)
				}
				if got != want {
					t.Fatalf("%s: ray from %v %v (in %v) prices length %d at %d, want %d", name, from, d, in, tl, got, want)
				}
			}
		}
	}
}
