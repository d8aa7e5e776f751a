package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// weightedGrid is a lattice whose edges cost floor per step plus a random
// non-negative extra, with a few long jumps that make weighted A* reopen
// nodes. It offers every successor with the floor as its bound, and lazy
// selects how it prices them: lazy prices only what Offer accepts, eager
// prices every successor and emits it with its cost as the bound.
type weightedGrid struct {
	w, h    int
	floor   Cost
	blocked []bool
	extra   []Cost // per cell and direction
	goal    [2]int
	lazy    bool

	expanded map[[2]int]bool
	priced   int // successors priced
	reprice  int // lazy prices of an already expanded state
}

func newWeightedGrid(r *rand.Rand) *weightedGrid {
	g := &weightedGrid{w: 3 + r.Intn(10), h: 3 + r.Intn(10), floor: Cost(r.Intn(3) * 5)}
	n := g.w * g.h
	g.blocked = make([]bool, n)
	for i := range g.blocked {
		g.blocked[i] = r.Intn(5) == 0
	}
	g.extra = make([]Cost, 5*n)
	for i := range g.extra {
		g.extra[i] = Cost(r.Intn(20))
	}
	g.goal = [2]int{r.Intn(g.w), r.Intn(g.h)}
	g.blocked[0], g.blocked[g.goal[1]*g.w+g.goal[0]] = false, false
	return g
}

func (g *weightedGrid) Start() [2]int        { return [2]int{0, 0} }
func (g *weightedGrid) IsGoal(s [2]int) bool { return s == g.goal }
func (g *weightedGrid) Hash(s [2]int) uint64 { return uint64(s[0])<<32 ^ uint64(s[1]) }

// Heuristic is floor times the lattice distance to the goal: consistent
// with the offered bounds, since a step changes it by at most one floor.
func (g *weightedGrid) Heuristic(s [2]int) Cost {
	return g.floor * Cost(abs(s[0]-g.goal[0])+abs(s[1]-g.goal[1]))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (g *weightedGrid) Tracer() Tracer[[2]int] { return g }
func (g *weightedGrid) Expanded(s [2]int, _ Cost) {
	g.expanded[s] = true
}
func (g *weightedGrid) Generated([2]int, Cost) {}

func (g *weightedGrid) Successors(s [2]int, out *Offers[[2]int]) {
	cell := s[1]*g.w + s[0]
	for k, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {3, 2}} {
		n := [2]int{s[0] + d[0], s[1] + d[1]}
		if n[0] < 0 || n[0] >= g.w || n[1] < 0 || n[1] >= g.h || g.blocked[n[1]*g.w+n[0]] {
			continue
		}
		steps := Cost(abs(d[0]) + abs(d[1]))
		bound := g.floor * steps
		cost := bound + g.extra[5*cell+k]
		if !g.lazy {
			g.priced++
			out.Emit(n, cost)
			continue
		}
		if out.Offer(n, bound) {
			g.priced++
			if g.expanded[n] {
				g.reprice++
			}
			out.Price(cost)
		}
	}
}

// TestLazyPricingEqualsEager searches random weighted grids twice, once
// pricing only the successors Offer accepts and once pricing every one,
// under every strategy, weighted A*, a cost ceiling and an expansion
// budget, and requires the same Result: path, cost and every Stats field.
// Under the unweighted strategies the lazy run never prices a state it has
// expanded, since the heuristic is consistent with the bounds.
func TestLazyPricingEqualsEager(t *testing.T) {
	variants := []struct {
		name     string
		opts     Options
		weighted bool
	}{
		{"astar", Options{Strategy: AStar}, false},
		{"best-first", Options{Strategy: BestFirst}, false},
		{"breadth-first", Options{Strategy: BreadthFirst}, false},
		{"weighted-3/1", Options{Strategy: AStar, WeightNum: 3, WeightDen: 1}, true},
		{"weighted-5/2", Options{Strategy: AStar, WeightNum: 5, WeightDen: 2}, true},
	}
	lazyPriced, eagerPriced := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := newWeightedGrid(r)
		for _, v := range variants {
			for _, maxCost := range []Cost{0, Cost(5 + r.Intn(100))} {
				for _, budget := range []int{0, 1 + r.Intn(30)} {
					opts := v.opts
					opts.MaxCost, opts.MaxExpansions = maxCost, budget
					label := fmt.Sprintf("seed %d %s maxcost %d budget %d", seed, v.name, maxCost, budget)
					g.lazy, g.priced, g.reprice, g.expanded = false, 0, 0, map[[2]int]bool{}
					want, wantErr := Find[[2]int](g, opts)
					eagerPriced += g.priced
					g.lazy, g.priced, g.reprice, g.expanded = true, 0, 0, map[[2]int]bool{}
					got, gotErr := Find[[2]int](g, opts)
					lazyPriced += g.priced
					if gotErr != wantErr {
						t.Fatalf("%s: error %v, eager %v", label, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s:\n lazy  %+v\n eager %+v", label, got, want)
					}
					if !v.weighted && g.reprice > 0 {
						t.Fatalf("%s: priced %d successors already expanded", label, g.reprice)
					}
				}
			}
		}
	}
	if lazyPriced >= eagerPriced {
		t.Fatalf("lazy pricing priced %d successors, eager %d: nothing was skipped", lazyPriced, eagerPriced)
	}
	t.Logf("priced %d successors lazily, %d eagerly", lazyPriced, eagerPriced)
}

// TestPriceBelowBoundFails: a price under the offered bound would make the
// offers already turned down unsound, so the search stops with
// ErrBelowBound; a negative bound stops it with ErrNegativeEdge.
func TestPriceBelowBoundFails(t *testing.T) {
	for _, tc := range []struct {
		bound, price Cost
		want         error
	}{
		{5, 4, ErrBelowBound},
		{-1, 0, ErrNegativeEdge},
	} {
		p := &pricedPair{bound: tc.bound, price: tc.price}
		for _, st := range []Strategy{AStar, BestFirst, BreadthFirst} {
			if _, err := Find[int](p, Options{Strategy: st}); err != tc.want {
				t.Errorf("%v bound %d price %d: err %v, want %v", st, tc.bound, tc.price, err, tc.want)
			}
		}
	}
}

// pricedPair offers its start's one successor with a fixed bound and price.
type pricedPair struct{ bound, price Cost }

func (*pricedPair) Start() int         { return 0 }
func (*pricedPair) IsGoal(s int) bool  { return s == 1 }
func (*pricedPair) Heuristic(int) Cost { return 0 }
func (*pricedPair) Hash(s int) uint64  { return uint64(s) }
func (p *pricedPair) Successors(s int, out *Offers[int]) {
	if s == 0 && out.Offer(1, p.bound) {
		out.Price(p.price)
	}
}
