// Package search implements the generic state-space search framework the
// paper builds its router on (Nilsson's A* plus the blind strategies it
// generalizes).
//
// A search maintains two lists, following the paper's exposition:
//
//   - OPEN: the frontier — nodes the search may still expand;
//   - CLOSED: nodes already expanded, no longer candidates.
//
// The strategies differ only in the discipline used to pick the next node
// off OPEN:
//
//   - BreadthFirst: first-in first-out;
//   - BestFirst: ascending g(n) — branch and bound;
//   - AStar: ascending f(n) = g(n) + h(n).
//
// With an admissible heuristic (h a lower bound on the true remaining cost)
// AStar always returns a minimal-cost path. When a cheaper path is found to
// a node already on CLOSED the node is reopened and its parent pointer is
// redirected, exactly as the paper prescribes.
package search

import (
	"errors"
	"fmt"

	"repro/internal/faultinject"
)

// Cost is the additive edge/path cost type. Costs must be non-negative; the
// termination argument in the paper depends on it.
type Cost = int64

// Problem describes a state-space search problem over states of type S.
// States must be comparable because OPEN/CLOSED membership is by state
// identity ("you must be careful not to have more than one copy of a node
// active at any time").
type Problem[S comparable] interface {
	// Start returns the initial state s.
	Start() S
	// IsGoal reports whether the state is a goal.
	IsGoal(S) bool
	// Successors invokes emit for every successor of the state together
	// with the non-negative cost of the connecting edge.
	Successors(s S, emit func(next S, edgeCost Cost))
	// Heuristic estimates the remaining cost from the state to a goal.
	// It must never be negative. Return 0 for uninformed strategies.
	Heuristic(S) Cost
}

// Strategy selects the OPEN-list discipline.
type Strategy uint8

// The strategies this package implements. The paper discusses a fourth,
// depth-first search, which nothing here needs.
const (
	AStar Strategy = iota
	BestFirst
	BreadthFirst
)

var strategyNames = [...]string{"A*", "best-first", "breadth-first"}

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Options tunes a search run.
type Options struct {
	// Strategy is the OPEN-list discipline. The zero value is AStar.
	Strategy Strategy
	// MaxExpansions aborts the search after this many node expansions;
	// zero means unlimited. The abort is reported as ErrBudget.
	MaxExpansions int
	// WeightNum/WeightDen inflate the heuristic: f = g + h*WeightNum/WeightDen.
	// Both zero means weight 1 (admissible A*). WeightNum > WeightDen gives
	// weighted (inadmissible) A*, used by the ablation experiments.
	WeightNum, WeightDen Cost
	// MaxCost, when positive, abandons an ordered search as soon as the
	// cheapest open node's f exceeds it. The check precedes the goal test,
	// so a search that finds a goal finds the one, by the same path, that
	// it finds without a ceiling. With an admissible heuristic the abort
	// is exact: it fires only when every remaining path costs more than
	// MaxCost, so any goal costing at most MaxCost is still found. Zero
	// means no ceiling; a caller that needs "cost 0 only" searches without
	// one and checks the cost it gets. The router's Steiner rounds pass the
	// best attachment cost found so far, or one less, so a candidate that
	// cannot win stops early. Ignored by the blind strategies.
	MaxCost Cost
	// Done, when non-nil, cancels the search cooperatively: the expansion
	// loop polls the channel every cancelPollMask+1 expansions and aborts
	// with ErrCancelled once it is closed. The router threads a
	// context.Context's Done channel through here, which keeps this
	// package free of the context dependency.
	Done <-chan struct{}
}

// cancelPollMask sets how often the expansion loops poll Options.Done: every
// 64 expansions, so cancellation latency is bounded while the per-expansion
// overhead stays one mask test on the hot path.
const cancelPollMask = 63

// Tracer observes a search for visualization and debugging (the Figure 1
// expansion traces). Implementations must be cheap; they run inline.
type Tracer[S comparable] interface {
	// Expanded is called when a node comes off OPEN for expansion, with
	// its g value.
	Expanded(s S, g Cost)
	// Generated is called for every successor emitted (after dedup
	// against a better existing path).
	Generated(s S, g Cost)
}

// TracedProblem optionally attaches a Tracer to a Problem. Find checks for
// it with a type assertion.
type TracedProblem[S comparable] interface {
	Problem[S]
	Tracer() Tracer[S]
}

// tracerOf extracts the problem's tracer, or nil.
func tracerOf[S comparable](p Problem[S]) Tracer[S] {
	if tp, ok := p.(TracedProblem[S]); ok {
		return tp.Tracer()
	}
	return nil
}

// Stats counts the work a search performed. The paper's Figure 1 claim is a
// statement about Expanded for the gridless successor generator.
type Stats struct {
	Expanded int // nodes removed from OPEN and expanded
	// Generated counts successor states produced, before dedup. For the
	// gridless router every visible obstacle corner on a ray counts,
	// including corners that project to the same point: the ray generator
	// emits such a corner line once with its corner count, and the router
	// adds the repeats it folded (see ray.Gen.Successors).
	Generated int
	Reopened  int // CLOSED nodes moved back to OPEN on a cheaper path
	MaxOpen   int // high-water mark of the OPEN list
}

// Result is the outcome of a search.
type Result[S comparable] struct {
	// Found reports whether a goal was reached.
	Found bool
	// Path lists the states from start to goal inclusive (empty when not
	// found).
	Path []S
	// Cost is the accumulated path cost g(goal).
	Cost Cost
	// Stats describes the work performed.
	Stats Stats
}

// ErrBudget is returned when MaxExpansions is exhausted before a goal is
// reached.
var ErrBudget = errors.New("search: expansion budget exhausted")

// ErrNegativeEdge is returned when a successor is emitted with a negative
// edge cost, which would break the termination argument.
var ErrNegativeEdge = errors.New("search: negative edge cost")

// ErrCancelled is returned when Options.Done closes before a goal is
// reached. The partial Stats describe the work performed up to the abort.
var ErrCancelled = errors.New("search: cancelled")

// cancelled polls the optional Done channel; it never blocks.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// node is the bookkeeping record for a state on OPEN or CLOSED. Nodes live
// in a Context's slab arena and refer to each other by index, so a whole
// search allocates O(1) slabs instead of one heap object per node.
type node[S comparable] struct {
	state  S
	g      Cost
	h      Cost
	f      Cost  // g + weighted h (or ordering key for the blind strategies)
	parent int32 // arena index of the parent node; -1 for the start
	seq    int32 // insertion sequence, for deterministic tie-breaking
	pos    int32 // heap position; -1 when not on OPEN
	closed bool
}

// Context holds the reusable bookkeeping of a search run: the node arena,
// the OPEN heap/deque, and the state→node table. A zero-value Context is
// ready to use; reusing one across runs (FindWith) keeps the steady state
// allocation-free, which is what the router's per-worker pools rely on. A
// Context is not safe for concurrent use.
type Context[S comparable] struct {
	nodes []node[S]
	open  []int32
	all   map[S]int32
}

// NewContext returns an empty reusable search context.
func NewContext[S comparable]() *Context[S] {
	return &Context[S]{all: make(map[S]int32)}
}

// reset readies the context for a fresh run, keeping its capacity.
func (c *Context[S]) reset() {
	c.nodes = c.nodes[:0]
	c.open = c.open[:0]
	if c.all == nil {
		c.all = make(map[S]int32)
	} else {
		clear(c.all)
	}
}

// alloc appends a fresh node for state st and returns its arena index.
func (c *Context[S]) alloc(st S) int32 {
	c.nodes = append(c.nodes, node[S]{state: st, parent: -1, pos: -1})
	return int32(len(c.nodes) - 1)
}

// heapLess orders OPEN by (f, h, seq). Breaking f ties toward smaller h
// prefers nodes closer to the goal, the standard A* refinement; seq makes
// the whole order total, so the pop sequence is deterministic regardless of
// the heap's internal layout.
func (c *Context[S]) heapLess(a, b int32) bool {
	na, nb := &c.nodes[a], &c.nodes[b]
	if na.f != nb.f {
		return na.f < nb.f
	}
	if na.h != nb.h {
		return na.h < nb.h
	}
	return na.seq < nb.seq
}

func (c *Context[S]) heapSwap(i, j int) {
	c.open[i], c.open[j] = c.open[j], c.open[i]
	c.nodes[c.open[i]].pos = int32(i)
	c.nodes[c.open[j]].pos = int32(j)
}

func (c *Context[S]) heapUp(i int) {
	//grlint:bounded heap walk is O(log n) in the open-list size
	for i > 0 {
		parent := (i - 1) / 2
		if !c.heapLess(c.open[i], c.open[parent]) {
			break
		}
		c.heapSwap(i, parent)
		i = parent
	}
}

func (c *Context[S]) heapDown(i int) {
	n := len(c.open)
	//grlint:bounded heap walk is O(log n) in the open-list size
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && c.heapLess(c.open[r], c.open[l]) {
			small = r
		}
		if !c.heapLess(c.open[small], c.open[i]) {
			break
		}
		c.heapSwap(i, small)
		i = small
	}
}

// heapPush files ni on OPEN.
func (c *Context[S]) heapPush(ni int32) {
	c.nodes[ni].pos = int32(len(c.open))
	c.open = append(c.open, ni)
	c.heapUp(len(c.open) - 1)
}

// heapPop removes and returns the minimum of OPEN.
func (c *Context[S]) heapPop() int32 {
	top := c.open[0]
	last := len(c.open) - 1
	c.open[0] = c.open[last]
	c.nodes[c.open[0]].pos = 0
	c.open = c.open[:last]
	if last > 0 {
		c.heapDown(0)
	}
	c.nodes[top].pos = -1
	return top
}

// heapFix restores heap order after the node at heap position i got a
// smaller key (the decrease-key of a cheaper path to an open node).
func (c *Context[S]) heapFix(i int) {
	ni := c.open[i]
	c.heapUp(i)
	if c.nodes[ni].pos == int32(i) {
		c.heapDown(i)
	}
}

// Find runs the search described by opts over the problem and returns the
// result. The only errors are ErrBudget and ErrNegativeEdge; an exhausted
// search space without a goal is not an error (Found is false).
func Find[S comparable](p Problem[S], opts Options) (Result[S], error) {
	return FindWith(NewContext[S](), p, opts)
}

// FindWith is Find running on a caller-supplied context, so repeated
// searches (the router's per-net connection queries) reuse the node arena,
// OPEN list and hash table instead of reallocating them per query.
func FindWith[S comparable](ctx *Context[S], p Problem[S], opts Options) (Result[S], error) {
	switch opts.Strategy {
	case AStar, BestFirst:
		return findOrdered(ctx, p, opts)
	case BreadthFirst:
		return findBlind(ctx, p, opts)
	default:
		return Result[S]{}, fmt.Errorf("search: unknown strategy %v", opts.Strategy)
	}
}

// weigh applies the optional heuristic weight.
func weigh(h Cost, opts Options) Cost {
	if opts.WeightNum == 0 && opts.WeightDen == 0 {
		return h
	}
	den := opts.WeightDen
	if den == 0 {
		den = 1
	}
	return h * opts.WeightNum / den
}

// findOrdered implements BestFirst (f = g) and AStar (f = g + h) with an
// inlined index-based binary heap over the context's node arena and CLOSED
// reopening. The inner loop performs no per-node allocation: nodes live in
// the arena slab, the heap holds indices, and the only growth is amortized
// slab/table expansion (absorbed entirely on context reuse).
func findOrdered[S comparable](ctx *Context[S], p Problem[S], opts Options) (Result[S], error) {
	useH := opts.Strategy == AStar
	ctx.reset()
	var (
		res    Result[S]
		seq    int32
		stats  Stats
		tracer = tracerOf(p)
	)
	start := p.Start()
	h0 := Cost(0)
	if useH {
		h0 = p.Heuristic(start)
	}
	si := ctx.alloc(start)
	ctx.nodes[si].h = h0
	ctx.nodes[si].f = weigh(h0, opts)
	ctx.all[start] = si
	ctx.heapPush(si)

	// The emit closure is hoisted out of the expansion loop — built once per
	// search, not once per expansion — and reads the expanded node through
	// the loop variables below. (A closure literal inside the loop would be
	// reallocated, with its captures boxed, on every expansion.)
	var (
		ni      int32
		ng      Cost
		emitErr error
	)
	emit := func(next S, edge Cost) {
		if emitErr != nil {
			return
		}
		if edge < 0 {
			emitErr = ErrNegativeEdge
			return
		}
		stats.Generated++
		g := ng + edge
		if pi, ok := ctx.all[next]; ok {
			prev := &ctx.nodes[pi]
			if g >= prev.g {
				return // existing path at least as good
			}
			// Cheaper path: redirect the parent pointer; reopen if the
			// node had been closed.
			prev.parent = ni
			prev.g = g
			prev.f = g
			if useH {
				prev.f = g + weigh(prev.h, opts)
			}
			if prev.closed {
				prev.closed = false
				stats.Reopened++
				seq++
				prev.seq = seq
				ctx.heapPush(pi)
			} else {
				ctx.heapFix(int(prev.pos))
			}
			return
		}
		hv := Cost(0)
		if useH {
			hv = p.Heuristic(next)
		}
		seq++
		nn := ctx.alloc(next)
		nd := &ctx.nodes[nn]
		nd.parent = ni
		nd.g = g
		nd.h = hv
		nd.f = g
		if useH {
			nd.f = g + weigh(hv, opts)
		}
		nd.seq = seq
		ctx.all[next] = nn
		ctx.heapPush(nn)
		if tracer != nil {
			tracer.Generated(next, g)
		}
	}

	for len(ctx.open) > 0 {
		if stats.Expanded&cancelPollMask == 0 {
			if cancelled(opts.Done) {
				res.Stats = stats
				return res, ErrCancelled
			}
			if err := faultinject.Fire(faultinject.Search, ""); err != nil {
				res.Stats = stats
				return res, err
			}
		}
		if len(ctx.open) > stats.MaxOpen {
			stats.MaxOpen = len(ctx.open)
		}
		ni = ctx.heapPop()
		// Bound pruning: the heap minimum's f is a lower bound on every
		// remaining path, so once it exceeds MaxCost no acceptable goal is
		// reachable and the search reports "not found" early.
		if opts.MaxCost > 0 && ctx.nodes[ni].f > opts.MaxCost {
			res.Stats = stats
			return res, nil
		}
		// The arena may grow inside the successor closure, so hold the
		// expanded node's fields by value, not by pointer.
		nstate := ctx.nodes[ni].state
		ng = ctx.nodes[ni].g
		// Terminate when a goal node is *removed* from OPEN: every other
		// open node has f at least as large, so no cheaper path remains.
		if p.IsGoal(nstate) {
			res.Found = true
			res.Cost = ng
			res.Path = ctx.reconstruct(ni)
			res.Stats = stats
			return res, nil
		}
		ctx.nodes[ni].closed = true
		stats.Expanded++
		if tracer != nil {
			tracer.Expanded(nstate, ng)
		}
		if opts.MaxExpansions > 0 && stats.Expanded > opts.MaxExpansions {
			res.Stats = stats
			return res, ErrBudget
		}

		emitErr = nil
		p.Successors(nstate, emit)
		if emitErr != nil {
			res.Stats = stats
			return res, emitErr
		}
	}
	res.Stats = stats
	return res, nil
}

// findBlind implements BreadthFirst over the context arena, the paper's
// "blind" strategy: the OPEN order ignores cost, although g is still
// tracked so the returned path has an accurate length. It pops through a
// head index with periodic compaction instead of slicing the front off
// (open = open[1:] pins the backing array and re-copies the whole live
// queue on every growth — O(n²) churn on wavefront workloads).
func findBlind[S comparable](ctx *Context[S], p Problem[S], opts Options) (Result[S], error) {
	ctx.reset()
	var (
		res    Result[S]
		head   int
		stats  Stats
		tracer = tracerOf(p)
	)
	start := p.Start()
	si := ctx.alloc(start)
	ctx.all[start] = si
	ctx.open = append(ctx.open, si)

	// Hoisted emit closure, as in findOrdered.
	var (
		ni      int32
		ng      Cost
		emitErr error
	)
	emit := func(next S, edge Cost) {
		if emitErr != nil {
			return
		}
		if edge < 0 {
			emitErr = ErrNegativeEdge
			return
		}
		stats.Generated++
		if _, ok := ctx.all[next]; ok {
			return // already active or closed; blind search never reopens
		}
		nn := ctx.alloc(next)
		nd := &ctx.nodes[nn]
		nd.parent = ni
		nd.g = ng + edge
		ctx.all[next] = nn
		ctx.open = append(ctx.open, nn)
		if tracer != nil {
			tracer.Generated(next, nd.g)
		}
	}

	// The goal test runs when a node comes off OPEN; first-in first-out
	// order makes the first goal off OPEN one with the fewest edges.
	for head < len(ctx.open) {
		if stats.Expanded&cancelPollMask == 0 {
			if cancelled(opts.Done) {
				res.Stats = stats
				return res, ErrCancelled
			}
			if err := faultinject.Fire(faultinject.Search, ""); err != nil {
				res.Stats = stats
				return res, err
			}
		}
		if live := len(ctx.open) - head; live > stats.MaxOpen {
			stats.MaxOpen = live
		}
		ni = ctx.open[head]
		head++
		if head >= 64 && head*2 >= len(ctx.open) {
			n := copy(ctx.open, ctx.open[head:])
			ctx.open = ctx.open[:n]
			head = 0
		}
		if ctx.nodes[ni].closed {
			continue // superseded entry
		}
		nstate := ctx.nodes[ni].state
		ng = ctx.nodes[ni].g
		if p.IsGoal(nstate) {
			res.Found = true
			res.Cost = ng
			res.Path = ctx.reconstruct(ni)
			res.Stats = stats
			return res, nil
		}
		ctx.nodes[ni].closed = true
		stats.Expanded++
		if tracer != nil {
			tracer.Expanded(nstate, ng)
		}
		if opts.MaxExpansions > 0 && stats.Expanded > opts.MaxExpansions {
			res.Stats = stats
			return res, ErrBudget
		}
		emitErr = nil
		p.Successors(nstate, emit)
		if emitErr != nil {
			res.Stats = stats
			return res, emitErr
		}
	}
	res.Stats = stats
	return res, nil
}

// reconstruct follows parent indices back to the start, as the paper
// describes, and returns the path in start→goal order. The path is a fresh
// slice of state values, so it stays valid after the context is reused.
func (c *Context[S]) reconstruct(ni int32) []S {
	n := 0
	for m := ni; m >= 0; m = c.nodes[m].parent {
		n++
	}
	path := make([]S, n)
	for m := ni; m >= 0; m = c.nodes[m].parent {
		n--
		path[n] = c.nodes[m].state
	}
	return path
}
