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
	"math/bits"

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
	// Successors offers every successor of the state to out, each with a
	// lower bound on the cost of the connecting edge, and prices the ones
	// the search can keep (see Offers).
	Successors(s S, out *Offers[S])
	// Heuristic estimates the remaining cost from the state to a goal.
	// It must never be negative. Return 0 for uninformed strategies.
	Heuristic(S) Cost
	// Hash returns a hash of the state for the search's state table. Equal
	// states must hash equal. The table mixes the value again, so a plain
	// combination of the state's fields will do.
	Hash(S) uint64
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
	// Generated is called for every successor priced and filed as a new
	// node, with its g value.
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
	// Generated counts successor states offered, before dedup, whether or
	// not the search priced them. For the gridless router every visible
	// obstacle corner on a ray counts, including corners that project to
	// the same point: the ray generator emits such a corner line once with
	// its corner count, and the router adds the repeats it folded (see
	// ray.Gen.Successors).
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

// ErrNegativeEdge is returned when a successor is offered with a negative
// bound on its edge cost, which would break the termination argument.
var ErrNegativeEdge = errors.New("search: negative edge cost")

// ErrBelowBound is returned when a successor is priced below the bound it
// was offered with: the search may already have turned down other offers
// that such a price would have kept.
var ErrBelowBound = errors.New("search: edge cost below its offered bound")

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

// slot is one entry of a Context's state table: the arena index of a node,
// live only while gen is the table's generation.
type slot struct {
	gen  uint32
	node int32
}

// Context holds the reusable bookkeeping of a search run: the node arena,
// the OPEN heap/deque, the state table and the run's Offers. A zero-value
// Context is ready to use; reusing one across runs (FindWith) keeps the
// steady state allocation-free, which is what the router's per-worker pools
// rely on. A Context is not safe for concurrent use.
//
// The state table maps every state in the arena to its node by open
// addressing with linear probing, at most half full. A slot belongs to the
// current run when its stamp equals gen, so a new run empties the table by
// incrementing gen, whatever size an earlier run grew it to.
type Context[S comparable] struct {
	nodes []node[S]
	open  []int32
	slots []slot
	gen   uint32
	shift uint // 64 - log2(len(slots)): a mixed hash's top bits pick the slot
	out   Offers[S]
}

// NewContext returns an empty reusable search context.
func NewContext[S comparable]() *Context[S] {
	return &Context[S]{}
}

// begin readies the context for a fresh run over p, keeping its capacity,
// and returns the run's Offers.
func (c *Context[S]) begin(p Problem[S], opts Options) *Offers[S] {
	c.nodes = c.nodes[:0]
	c.open = c.open[:0]
	if c.gen++; c.gen == 0 { // wrapped: stale stamps could read as live
		clear(c.slots)
		c.gen = 1
	}
	c.out = Offers[S]{
		c:      c,
		p:      p,
		tracer: tracerOf(p),
		opts:   opts,
		useH:   opts.Strategy == AStar,
		blind:  opts.Strategy == BreadthFirst,
	}
	return &c.out
}

// end drops the run's Offers, so a pooled context does not keep its
// problem alive.
func (c *Context[S]) end() { c.out = Offers[S]{} }

// mixHash spreads a problem's hash over the top bits the table indexes by
// (Fibonacci hashing).
func mixHash(h uint64) uint64 { return h * 0x9E3779B97F4A7C15 }

// probe looks st, of hash h, up in the state table. It returns the slot
// holding st's node and the node, or the empty slot where st belongs and -1.
func (c *Context[S]) probe(st S, h uint64) (int, int32) {
	if len(c.slots) == 0 {
		return 0, -1
	}
	mask := len(c.slots) - 1
	//grlint:bounded the table is at most half full, so a probe meets an empty slot
	for i := int(mixHash(h) >> c.shift); ; i = (i + 1) & mask {
		sl := c.slots[i]
		if sl.gen != c.gen {
			return i, -1
		}
		if c.nodes[sl.node].state == st {
			return i, sl.node
		}
	}
}

// insert allocates a node for st, whose probe ended at the empty slot at,
// files it in the table and returns its arena index. When the table would
// pass half full it doubles, rehashing every node through p.
func (c *Context[S]) insert(p Problem[S], st S, at int) int32 {
	ni := int32(len(c.nodes))
	c.nodes = append(c.nodes, node[S]{state: st, parent: -1, pos: -1})
	if 2*len(c.nodes) <= len(c.slots) {
		c.slots[at] = slot{gen: c.gen, node: ni}
		return ni
	}
	n := max(64, 2*len(c.slots))
	c.slots = make([]slot, n)
	c.shift = uint(64 - bits.TrailingZeros(uint(n)))
	c.gen = 1
	for k := range c.nodes {
		i, _ := c.probe(c.nodes[k].state, p.Hash(c.nodes[k].state))
		c.slots[i] = slot{gen: c.gen, node: int32(k)}
	}
	return ni
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

// Offers receives the successors of one expansion. A problem offers each
// successor with a lower bound on the cost of the connecting edge and
// prices only those the search can keep:
//
//	if out.Offer(next, bound) {
//		out.Price(cost) // the exact edge cost, at least bound
//	}
//
// Offer looks next up in the state table, once. It reports false when the
// search already holds next by a path that every price of at least bound
// would fail to improve on, or, in a blind search, holds it at all; the
// problem then skips pricing it. Otherwise the problem must pass the exact
// cost to Price before it offers anything else. A price is judged exactly
// as a successor emitted with its cost always was, and a turned-down offer
// is one that price would have lost, so the path, its cost and every Stats
// field are those of a search that priced every successor (Emit). An offer
// counts in Stats.Generated whether or not it is priced.
//
// Under an unweighted ordered search a closed node is never priced when
// the heuristic is consistent with the bounds (h(s) <= bound + h(next), as
// Scale times a distance is for the router's Manhattan bounds): the node
// left OPEN no later than the one being expanded, so its g is at most the
// expanded g plus the bound.
type Offers[S comparable] struct {
	c      *Context[S]
	p      Problem[S]
	tracer Tracer[S]
	opts   Options
	useH   bool // AStar: OPEN ordered by g + weighted h
	blind  bool // BreadthFirst: FIFO OPEN, no repricing
	stats  Stats
	seq    int32
	err    error
	// from is the node being expanded and g its path cost.
	from int32
	g    Cost
	// The successor Offer last accepted, which Price completes: its state,
	// the slot its probe ended at, its node (-1 when new) and its bound.
	next  S
	slot  int
	node  int32
	bound Cost
}

// Offer proposes next as a successor of the node being expanded, with
// bound a lower bound on the connecting edge's cost, and reports whether
// the problem must price it (see Offers).
func (o *Offers[S]) Offer(next S, bound Cost) bool {
	if o.err != nil {
		return false
	}
	if bound < 0 {
		o.err = ErrNegativeEdge
		return false
	}
	o.stats.Generated++
	at, ni := o.c.probe(next, o.p.Hash(next))
	if ni >= 0 && (o.blind || o.g+bound >= o.c.nodes[ni].g) {
		return false // the path held is at least as good at any such price
	}
	o.next, o.slot, o.node, o.bound = next, at, ni, bound
	return true
}

// Price completes the offer Offer last accepted with the edge's exact
// cost.
func (o *Offers[S]) Price(edge Cost) {
	if o.err != nil {
		return
	}
	if edge < o.bound {
		o.err = ErrBelowBound
		return
	}
	c := o.c
	g := o.g + edge
	if pi := o.node; pi >= 0 {
		prev := &c.nodes[pi]
		if g >= prev.g {
			return // existing path at least as good
		}
		// Cheaper path: redirect the parent pointer; reopen if the node had
		// been closed.
		prev.parent = o.from
		prev.g = g
		prev.f = g
		if o.useH {
			prev.f = g + weigh(prev.h, o.opts)
		}
		if prev.closed {
			prev.closed = false
			o.stats.Reopened++
			o.seq++
			prev.seq = o.seq
			c.heapPush(pi)
		} else {
			c.heapFix(int(prev.pos))
		}
		return
	}
	nn := c.insert(o.p, o.next, o.slot)
	nd := &c.nodes[nn]
	nd.parent = o.from
	nd.g = g
	if o.blind {
		c.open = append(c.open, nn)
	} else {
		if o.useH {
			nd.h = o.p.Heuristic(o.next)
		}
		nd.f = g + weigh(nd.h, o.opts)
		o.seq++
		nd.seq = o.seq
		c.heapPush(nn)
	}
	if o.tracer != nil {
		o.tracer.Generated(o.next, g)
	}
}

// Emit offers next with its exact edge cost as the bound, and prices it
// when the search can keep it: the successor of a problem that prices
// every edge anyway.
func (o *Offers[S]) Emit(next S, edge Cost) {
	if o.Offer(next, edge) {
		o.Price(edge)
	}
}

// Find runs the search described by opts over the problem and returns the
// result. The only errors are ErrBudget, ErrNegativeEdge and ErrBelowBound;
// an exhausted search space without a goal is not an error (Found is false).
func Find[S comparable](p Problem[S], opts Options) (Result[S], error) {
	return FindWith(NewContext[S](), p, opts)
}

// FindWith is Find running on a caller-supplied context, so repeated
// searches (the router's per-net connection queries) reuse the node arena,
// OPEN list and state table instead of reallocating them per query.
func FindWith[S comparable](ctx *Context[S], p Problem[S], opts Options) (Result[S], error) {
	defer ctx.end()
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

// start files the start state as the run's first node and returns it.
func (c *Context[S]) start(p Problem[S]) int32 {
	st := p.Start()
	at, _ := c.probe(st, p.Hash(st))
	return c.insert(p, st, at)
}

// findOrdered implements BestFirst (f = g) and AStar (f = g + h) with an
// inlined index-based binary heap over the context's node arena and CLOSED
// reopening. The inner loop performs no per-node allocation: nodes live in
// the arena slab, the heap holds indices, and the only growth is amortized
// slab/table expansion (absorbed entirely on context reuse).
func findOrdered[S comparable](ctx *Context[S], p Problem[S], opts Options) (Result[S], error) {
	o := ctx.begin(p, opts)
	var res Result[S]
	si := ctx.start(p)
	if o.useH {
		h0 := p.Heuristic(ctx.nodes[si].state)
		ctx.nodes[si].h = h0
		ctx.nodes[si].f = weigh(h0, opts)
	}
	ctx.heapPush(si)

	for len(ctx.open) > 0 {
		if o.stats.Expanded&cancelPollMask == 0 {
			if cancelled(opts.Done) {
				res.Stats = o.stats
				return res, ErrCancelled
			}
			if err := faultinject.Fire(faultinject.Search, ""); err != nil {
				res.Stats = o.stats
				return res, err
			}
		}
		if len(ctx.open) > o.stats.MaxOpen {
			o.stats.MaxOpen = len(ctx.open)
		}
		ni := ctx.heapPop()
		// Bound pruning: the heap minimum's f is a lower bound on every
		// remaining path, so once it exceeds MaxCost no acceptable goal is
		// reachable and the search reports "not found" early.
		if opts.MaxCost > 0 && ctx.nodes[ni].f > opts.MaxCost {
			res.Stats = o.stats
			return res, nil
		}
		// The arena may grow while the successors are offered, so hold the
		// expanded node's fields by value, not by pointer.
		nstate := ctx.nodes[ni].state
		ng := ctx.nodes[ni].g
		// Terminate when a goal node is *removed* from OPEN: every other
		// open node has f at least as large, so no cheaper path remains.
		if p.IsGoal(nstate) {
			res.Found = true
			res.Cost = ng
			res.Path = ctx.reconstruct(ni)
			res.Stats = o.stats
			return res, nil
		}
		ctx.nodes[ni].closed = true
		o.stats.Expanded++
		if o.tracer != nil {
			o.tracer.Expanded(nstate, ng)
		}
		if opts.MaxExpansions > 0 && o.stats.Expanded > opts.MaxExpansions {
			res.Stats = o.stats
			return res, ErrBudget
		}

		o.from, o.g = ni, ng
		p.Successors(nstate, o)
		if o.err != nil {
			res.Stats = o.stats
			return res, o.err
		}
	}
	res.Stats = o.stats
	return res, nil
}

// findBlind implements BreadthFirst over the context arena, the paper's
// "blind" strategy: the OPEN order ignores cost, although g is still
// tracked so the returned path has an accurate length. It pops through a
// head index with periodic compaction instead of slicing the front off
// (open = open[1:] pins the backing array and re-copies the whole live
// queue on every growth — O(n²) churn on wavefront workloads).
func findBlind[S comparable](ctx *Context[S], p Problem[S], opts Options) (Result[S], error) {
	o := ctx.begin(p, opts)
	var (
		res  Result[S]
		head int
	)
	ctx.open = append(ctx.open, ctx.start(p))

	// The goal test runs when a node comes off OPEN; first-in first-out
	// order makes the first goal off OPEN one with the fewest edges.
	for head < len(ctx.open) {
		if o.stats.Expanded&cancelPollMask == 0 {
			if cancelled(opts.Done) {
				res.Stats = o.stats
				return res, ErrCancelled
			}
			if err := faultinject.Fire(faultinject.Search, ""); err != nil {
				res.Stats = o.stats
				return res, err
			}
		}
		if live := len(ctx.open) - head; live > o.stats.MaxOpen {
			o.stats.MaxOpen = live
		}
		ni := ctx.open[head]
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
		ng := ctx.nodes[ni].g
		if p.IsGoal(nstate) {
			res.Found = true
			res.Cost = ng
			res.Path = ctx.reconstruct(ni)
			res.Stats = o.stats
			return res, nil
		}
		ctx.nodes[ni].closed = true
		o.stats.Expanded++
		if o.tracer != nil {
			o.tracer.Expanded(nstate, ng)
		}
		if opts.MaxExpansions > 0 && o.stats.Expanded > opts.MaxExpansions {
			res.Stats = o.stats
			return res, ErrBudget
		}
		o.from, o.g = ni, ng
		p.Successors(nstate, o)
		if o.err != nil {
			res.Stats = o.stats
			return res, o.err
		}
	}
	res.Stats = o.stats
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
