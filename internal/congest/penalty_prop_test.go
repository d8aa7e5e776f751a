package congest

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/router"
	"repro/internal/search"
)

// This file holds the live penalty, which prices a whole ray from one scan
// of the sections it touches, to the per-segment sum it replaced: for a
// segment from the ray's origin to any point on it, the tolls the segment
// reaches must sum to segmentPenalty, which visits the sections the segment
// itself touches and prices each by the same formula.

// segmentPenalty is the per-segment penalty the ray pricer replaced, kept
// as its oracle.
func segmentPenalty(m *Map, weight, hWeight geom.Coord, gain int, history []int, from, to geom.Point) search.Cost {
	var penalty search.Cost
	m.index.visit(geom.S(from, to), func(pi int) {
		var units geom.Coord
		if m.Usage[pi] >= m.Passages[pi].Capacity {
			units = weight
		}
		if gain > 0 && pi < len(history) {
			hw := hWeight
			if hWeight <= 0 {
				hw = weight
			}
			units += hw * geom.Coord(gain) * geom.Coord(history[pi])
		}
		penalty += router.Scale * search.Cost(units)
	})
	return penalty
}

// latticePassages builds passages on a coarse lattice, so cross-sections
// often share a line, meet end to end, or overlap along one.
func latticePassages(r *rand.Rand) []Passage {
	n := r.Intn(14) + 2
	out := make([]Passage, 0, n)
	for i := 0; i < n; i++ {
		x, y := geom.Coord(8*r.Intn(20)), geom.Coord(8*r.Intn(20))
		w, h := geom.Coord(8*(r.Intn(3)+1)), geom.Coord(8*(r.Intn(3)+1))
		out = append(out, Passage{
			Between:  [2]int{i, i + 1},
			Rect:     geom.R(x, y, x+w, y+h),
			Vertical: r.Intn(2) == 0,
			Width:    w,
			Capacity: r.Intn(3) + 1,
		})
	}
	return out
}

// checkRayPenalty draws passages, usage, capacities, history, weights and
// rays, and compares the ray pricer with segmentPenalty at every point of
// each ray.
func checkRayPenalty(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	passages := randomPassages(r)
	if r.Intn(2) == 0 {
		passages = latticePassages(r)
	}
	nets := make([][]geom.Seg, r.Intn(8))
	for ni := range nets {
		nets[ni] = randomNetSegs(r)
	}
	m := BuildMap(passages, nets)
	history := make([]int, len(passages)-r.Intn(2)) // sometimes one short
	for pi := range history {
		if r.Intn(3) == 0 {
			history[pi] = r.Intn(4)
		}
	}
	weight := geom.Coord(r.Intn(50))
	hWeight := geom.Coord(r.Intn(3) * r.Intn(20))
	gain := r.Intn(3)
	price := m.livePenalty(&weight, hWeight, gain, history)

	// Ray origins and lines come from the sections' own coordinates (their
	// line, their ends, one past an end) as often as from anywhere.
	var coords []geom.Coord
	for _, p := range passages {
		xs := p.CrossSection()
		coords = append(coords, xs.A.X, xs.A.Y, xs.B.X, xs.B.Y, xs.A.X-1, xs.B.Y+1)
	}
	pick := func() geom.Coord {
		if r.Intn(2) == 0 {
			return coords[r.Intn(len(coords))]
		}
		return geom.Coord(r.Intn(220) - 10)
	}
	var tolls []router.Toll
	for ray := 0; ray < 20; ray++ {
		from := geom.Pt(pick(), pick())
		d := geom.Dirs[r.Intn(len(geom.Dirs))]
		length := geom.Coord(r.Intn(200) + 1)
		step := d.Delta()
		stop := from.X + step.X*length
		if !d.Horizontal() {
			stop = from.Y + step.Y*length
		}
		tolls = price(tolls[:0], from, d, stop)
		for _, tl := range tolls {
			if tl.At < 0 || tl.At > length || tl.Cost <= 0 {
				t.Fatalf("seed=%d: ray from %v %v length %d has toll %+v", seed, from, d, length, tl)
			}
		}
		for at := geom.Coord(1); at <= length; at++ {
			var got search.Cost
			for _, tl := range tolls {
				if tl.At <= at {
					got += tl.Cost
				}
			}
			to := geom.Pt(from.X+step.X*at, from.Y+step.Y*at)
			if want := segmentPenalty(m, weight, hWeight, gain, history, from, to); got != want {
				t.Fatalf("seed=%d: ray from %v %v, segment to %v: tolls sum to %d, per-segment penalty %d (tolls %+v)",
					seed, from, d, to, got, want, tolls)
			}
		}
	}
}

func TestRayPenaltyMatchesSegments(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkRayPenalty(t, seed)
	}
}

// FuzzRayPenalty explores the same comparison from arbitrary seeds.
func FuzzRayPenalty(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRayPenalty(t, seed)
	})
}
