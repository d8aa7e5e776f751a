package congest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// This file pins the incremental congestion map — AddNet/RemoveNet splicing
// one net at a time — to BuildMap built from scratch over the same net set,
// across randomized passage fields and add/remove sequences. The sequential
// rip-up engine's correctness rests on this equivalence: its live map must
// at every moment equal the map a full rebuild would produce. The fuzz
// target drives the identical comparison from arbitrary seeds.

// randomPassages builds a deterministic random passage field. Between
// indices are synthetic (the map never dereferences them).
func randomPassages(r *rand.Rand) []Passage {
	n := r.Intn(12) + 2
	out := make([]Passage, 0, n)
	for i := 0; i < n; i++ {
		x, y := geom.Coord(r.Intn(160)), geom.Coord(r.Intn(160))
		w, h := geom.Coord(r.Intn(30)+4), geom.Coord(r.Intn(30)+4)
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

// randomNetSegs builds one net's random axis-parallel segment list.
func randomNetSegs(r *rand.Rand) []geom.Seg {
	segs := make([]geom.Seg, 0, 4)
	for i := r.Intn(4) + 1; i > 0; i-- {
		a := geom.Pt(geom.Coord(r.Intn(200)), geom.Coord(r.Intn(200)))
		d := geom.Coord(r.Intn(120))
		if r.Intn(2) == 0 {
			segs = append(segs, geom.S(a, geom.Pt(a.X+d, a.Y)))
		} else {
			segs = append(segs, geom.S(a, geom.Pt(a.X, a.Y+d)))
		}
	}
	return segs
}

// mapsEqual compares usage and per-passage net lists.
func mapsEqual(t *testing.T, seed int64, step int, got, want *Map) {
	t.Helper()
	for pi := range want.Passages {
		if got.Usage[pi] != want.Usage[pi] {
			t.Fatalf("seed=%d step %d passage %d: usage %d, rebuild %d",
				seed, step, pi, got.Usage[pi], want.Usage[pi])
		}
		g, w := got.netsThrough[pi], want.netsThrough[pi]
		if len(g) != len(w) {
			t.Fatalf("seed=%d step %d passage %d: nets %v, rebuild %v", seed, step, pi, g, w)
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("seed=%d step %d passage %d: nets %v, rebuild %v", seed, step, pi, g, w)
			}
		}
	}
}

// churn applies one random rip-up step to m and to routes, the route of
// each of its nets (nil = currently ripped out): rip a net out, or reroute
// it.
func churn(r *rand.Rand, m *Map, routes [][]geom.Seg) {
	ni := r.Intn(len(routes))
	if routes[ni] != nil && r.Intn(3) == 0 {
		m.RemoveNet(ni, routes[ni])
		routes[ni] = nil
		return
	}
	if routes[ni] != nil {
		m.RemoveNet(ni, routes[ni])
	}
	routes[ni] = randomNetSegs(r) // the rip-up/reroute cycle
	m.AddNet(ni, routes[ni])
}

// checkIncrementalMapAgainstRebuild runs one random add/remove/reroute
// sequence, comparing the live map against a from-scratch BuildMap after
// every mutation. Then it drops a random subset of the nets by Renumber, as
// an ECO removal does, and holds the copy to BuildMap over the kept routes
// in their new numbering, before and after more rip-up steps on it. Shared
// by the quick.Check test and the fuzz target.
func checkIncrementalMapAgainstRebuild(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	passages := randomPassages(r)
	nNets := r.Intn(8) + 2
	routes := make([][]geom.Seg, nNets)
	for ni := range routes {
		routes[ni] = randomNetSegs(r)
	}
	m := BuildMap(passages, routes)
	step := 0
	for ; step < 30; step++ {
		churn(r, m, routes)
		mapsEqual(t, seed, step, m, BuildMap(passages, routes))
	}

	next := make([]int, nNets)
	var kept [][]geom.Seg
	for ni := range next {
		if r.Intn(3) == 0 {
			next[ni] = -1
			continue
		}
		next[ni] = len(kept)
		kept = append(kept, routes[ni])
	}
	rn := m.Renumber(next)
	mapsEqual(t, seed, step, rn, BuildMap(passages, kept))
	mapsEqual(t, seed, step, m, BuildMap(passages, routes))
	for end := step + 10; step < end && len(kept) > 0; step++ {
		churn(r, rn, kept)
		mapsEqual(t, seed, step, rn, BuildMap(passages, kept))
	}
}

func TestIncrementalMapMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		checkIncrementalMapAgainstRebuild(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAddRemoveRoundTrip pins the exact inverse property the rip-up loop
// depends on: remove(add(m, net)) restores usage and net lists bit for bit.
func TestAddRemoveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	passages := randomPassages(r)
	base := [][]geom.Seg{randomNetSegs(r), randomNetSegs(r)}
	m := BuildMap(passages, base)
	before := m.Clone()
	extra := randomNetSegs(r)
	m.AddNet(5, extra)
	m.RemoveNet(5, extra)
	mapsEqual(t, 7, 0, m, before)
}

// TestMapCopiesAreIndependent mutates a map and its copy in turn — Clone's
// and Renumber's, whose net lists share one backing array — and holds each
// to a rebuild of its own routes after every step: neither may write into
// the other, and no list of a copy into its neighbour's.
func TestMapCopiesAreIndependent(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		passages := randomPassages(r)
		routes := make([][]geom.Seg, 6)
		for ni := range routes {
			routes[ni] = randomNetSegs(r)
		}
		identity := []int{0, 1, 2, 3, 4, 5}
		for _, copyOf := range []func(*Map) *Map{(*Map).Clone, func(m *Map) *Map { return m.Renumber(identity) }} {
			src := BuildMap(passages, routes)
			srcRoutes := append([][]geom.Seg(nil), routes...)
			cp := copyOf(src)
			cpRoutes := append([][]geom.Seg(nil), routes...)
			for step := 0; step < 20; step++ {
				if step%2 == 0 {
					churn(r, cp, cpRoutes)
				} else {
					churn(r, src, srcRoutes)
				}
				mapsEqual(t, seed, step, src, BuildMap(passages, srcRoutes))
				mapsEqual(t, seed, step, cp, BuildMap(passages, cpRoutes))
			}
		}
	}
}

// FuzzIncrementalMap explores the same live-vs-rebuild comparison, renumber
// step included, from arbitrary seeds.
func FuzzIncrementalMap(f *testing.F) {
	for _, seed := range []int64{0, 1, 5, 42, -11, 1 << 35} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkIncrementalMapAgainstRebuild(t, seed)
	})
}
