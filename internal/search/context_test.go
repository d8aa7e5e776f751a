package search

import (
	"testing"
	"testing/quick"
)

// TestContextReuseMatchesFresh: a single context recycled across many runs
// — different grids, different strategies, interleaved — must produce
// exactly the results a fresh context would, paths and stats included.
// This is the contract the router's sync.Pool of contexts depends on.
func TestContextReuseMatchesFresh(t *testing.T) {
	ctx := NewContext[[2]int]()
	f := func(seed int64) bool {
		g := randomGrid(seed)
		for _, strat := range []Strategy{AStar, BestFirst, BreadthFirst} {
			opts := Options{Strategy: strat}
			fresh, err1 := Find[[2]int](g, opts)
			reused, err2 := FindWith(ctx, g, opts)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed=%d %v: error mismatch %v vs %v", seed, strat, err1, err2)
			}
			if fresh.Found != reused.Found || fresh.Cost != reused.Cost ||
				fresh.Stats != reused.Stats || len(fresh.Path) != len(reused.Path) {
				t.Fatalf("seed=%d %v: fresh %+v reused %+v", seed, strat, fresh, reused)
			}
			for i := range fresh.Path {
				if fresh.Path[i] != reused.Path[i] {
					t.Fatalf("seed=%d %v: path diverged at %d", seed, strat, i)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBFSQueueCompaction drives breadth-first search far enough that the
// FIFO head-index compaction must trigger, and checks the result is still a
// fewest-edges path.
func TestBFSQueueCompaction(t *testing.T) {
	g := &gridProblem{w: 60, h: 60, blocked: map[[2]int]bool{}, start: [2]int{0, 0}, goal: [2]int{59, 59}}
	res, err := Find[[2]int](g, Options{Strategy: BreadthFirst})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 118 {
		t.Fatalf("BFS on open 60x60 grid: %+v, want cost 118", res)
	}
}

// TestContextGenerationWrap: when the table's generation stamp wraps, the
// slots a run long ago stamped must not read as live.
func TestContextGenerationWrap(t *testing.T) {
	ctx := NewContext[[2]int]()
	for seed := int64(0); seed < 6; seed++ {
		g := randomGrid(seed)
		if seed == 3 {
			ctx.gen = ^uint32(0) - 1 // the next two runs cross the wrap
		}
		fresh, err1 := Find[[2]int](g, Options{})
		reused, err2 := FindWith(ctx, g, Options{})
		if err1 != err2 || fresh.Cost != reused.Cost || fresh.Stats != reused.Stats || len(fresh.Path) != len(reused.Path) {
			t.Fatalf("seed=%d gen %d: fresh %+v %v, reused %+v %v", seed, ctx.gen, fresh, err1, reused, err2)
		}
	}
}
