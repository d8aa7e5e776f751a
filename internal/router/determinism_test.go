package router

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/layout"
	"repro/internal/plane"
)

// TestPooledSearchDeterminism pins the search-core rewrite: repeated
// whole-layout routes must be byte-identical even though every connection
// query runs on a recycled search context (node arena, OPEN heap, state
// table) that previous — and unrelated — queries have dirtied. Any state
// leaking across context reuse shows up here as a diverging route.
// TestIndexedTargetDeterminism pins the target set's box hierarchy on the
// workload it exists for: high-terminal nets whose partial Steiner trees
// span many hierarchy leaves. Repeated whole-layout routes — across
// recycled net scratch arenas, dirtied search pools, and different worker
// counts — must stay byte-identical, which holds exactly because the
// hierarchy's nearest/crossing/contains queries agree with the naive scans
// including the lexicographic tie-break on distance ties.
func TestIndexedTargetDeterminism(t *testing.T) {
	l, err := gen.MacroGrid(8, 8, 40, 30, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	r := New(ix, Options{})
	reference, err := r.RouteLayout(l, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reference.Failed) != 0 {
		t.Fatalf("reference failures: %v", reference.Failed)
	}
	// The 8-terminal control trees must outgrow a single hierarchy leaf.
	maxSegs := 0
	for i := range reference.Nets {
		if n := len(reference.Nets[i].Segments); n > maxSegs {
			maxSegs = n
		}
	}
	if maxSegs <= 4 { // a boxtree leaf files at most four boxes
		t.Fatalf("largest tree has %d segments; workload too small to exercise the hierarchy", maxSegs)
	}
	for round := 0; round < 2; round++ {
		for _, workers := range []int{1, 4} {
			got, err := r.RouteLayout(l, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Nets {
				g, w := &got.Nets[i], &reference.Nets[i]
				if g.Found != w.Found || g.Length != w.Length || len(g.Segments) != len(w.Segments) {
					t.Fatalf("round %d workers %d net %q: route diverged", round, workers, g.Net)
				}
				for s := range g.Segments {
					if g.Segments[s] != w.Segments[s] {
						t.Fatalf("round %d workers %d net %q segment %d: %v != %v",
							round, workers, g.Net, s, g.Segments[s], w.Segments[s])
					}
				}
			}
		}
	}
}

func TestPooledSearchDeterminism(t *testing.T) {
	mk := func(seed int64) (*Router, *layout.Layout) {
		l, err := gen.RandomLayout(gen.Config{
			Seed: seed, Cells: 10, Nets: 20, MaxTerminals: 4, Separation: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := plane.FromLayout(l)
		if err != nil {
			t.Fatal(err)
		}
		return New(ix, Options{}), l
	}
	rA, lA := mk(11)
	rB, lB := mk(99)

	reference, err := rA.RouteLayout(lA, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		// Dirty the pooled contexts with a different workload, then route
		// the reference layout again — sequentially and in parallel.
		if _, err := rB.RouteLayout(lB, 0); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := rA.RouteLayout(lA, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Nets) != len(reference.Nets) {
				t.Fatalf("round %d workers %d: %d nets, want %d",
					round, workers, len(got.Nets), len(reference.Nets))
			}
			for i := range got.Nets {
				g, w := &got.Nets[i], &reference.Nets[i]
				if g.Found != w.Found || g.Length != w.Length || len(g.Segments) != len(w.Segments) {
					t.Fatalf("round %d workers %d net %q: route diverged (%v/%d/%d vs %v/%d/%d)",
						round, workers, g.Net, g.Found, g.Length, len(g.Segments),
						w.Found, w.Length, len(w.Segments))
				}
				for s := range g.Segments {
					if g.Segments[s] != w.Segments[s] {
						t.Fatalf("round %d workers %d net %q segment %d: %v != %v",
							round, workers, g.Net, s, g.Segments[s], w.Segments[s])
					}
				}
			}
		}
	}
}
