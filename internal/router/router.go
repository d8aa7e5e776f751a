// Package router implements the paper's primary contribution: a gridless
// global router for general-cell layouts based on A* search with
// ray-tracing successor generation.
//
// A Router answers three kinds of queries, in increasing generality:
//
//   - RoutePoints: a minimal-cost rectilinear route between two points,
//     avoiding all cell interiors (the paper's core two-pin case);
//   - RouteConnection: a route from a set of source points to a target set
//     of points and segments (one Steiner attachment step);
//   - RouteNet: a route tree for a multi-terminal net with multi-pin
//     terminals, built by the paper's adaptation of the minimum spanning
//     tree algorithm in which every segment of the partial tree is a
//     potential connection point.
//
// Every net is routed independently against the cells only — the paper's
// key simplification, which removes net ordering entirely. RouteLayout
// exploits the resulting independence by routing nets concurrently.
package router

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/ray"
	"repro/internal/search"
)

// Options configures a Router.
type Options struct {
	// Mode selects the successor generator; the zero value is the paper's
	// Directed generator.
	Mode ray.Mode
	// Strategy selects the search discipline; the zero value is AStar.
	// Blind strategies are provided for the comparison experiments only.
	Strategy search.Strategy
	// Cost prices route segments; nil means LengthCost.
	Cost CostModel
	// MaxExpansions bounds the work per connection search; zero means the
	// built-in safety cap of 4,000,000 expansions.
	MaxExpansions int
	// WeightNum/WeightDen inflate the heuristic for the weighted-A*
	// ablation; both zero means admissible weight 1.
	WeightNum, WeightDen search.Cost
	// OnExpand, when non-nil, receives every expanded search point with
	// its accumulated cost — the hook behind the Figure 1 expansion
	// traces. It runs inline; keep it cheap.
	OnExpand func(at geom.Point, g search.Cost)
	// OnGenerate, when non-nil, receives every newly generated successor
	// point.
	OnGenerate func(at geom.Point, g search.Cost)
}

// defaultMaxExpansions stops runaway searches on unroutable queries.
const defaultMaxExpansions = 4_000_000

// Router routes over an immutable plane index. It is safe for concurrent
// use: all state is per-query.
type Router struct {
	ix   *plane.Index
	opts Options
	cost CostModel
}

// New builds a Router over the given obstacle index.
func New(ix *plane.Index, opts Options) *Router {
	cost := opts.Cost
	if cost == nil {
		cost = LengthCost{}
	}
	return &Router{ix: ix, opts: opts, cost: cost}
}

// Index returns the plane index the router searches over.
func (r *Router) Index() *plane.Index { return r.ix }

// Route is the result of a single connection search.
type Route struct {
	// Found reports whether a route exists within the search budget.
	Found bool
	// Points is the simplified rectilinear polyline from source to target.
	Points []geom.Point
	// Length is the total Manhattan wire length.
	Length geom.Coord
	// Cost is the model cost (Scale×length plus penalties).
	Cost search.Cost
	// Stats describes the search effort.
	Stats search.Stats
}

// Errors returned by routing queries.
var (
	// ErrBlockedEndpoint marks a query endpoint strictly inside a cell.
	ErrBlockedEndpoint = errors.New("router: endpoint strictly inside a cell")
	// ErrOutOfBounds marks a query endpoint outside the routing area.
	ErrOutOfBounds = errors.New("router: endpoint outside routing bounds")

	// errEmptyQuery marks a connection query without a source or a target.
	errEmptyQuery = errors.New("router: empty source or target set")
)

// PanicError is a goroutine panic recovered during the routing of one net
// and converted into a per-net error: the worker pool and the negotiator's
// rip-up loop isolate a poisoned net instead of letting it unwind a
// whole-layout run.
type PanicError struct {
	// Net names the net whose routing panicked.
	Net string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("router: net %q: routing panicked: %v", e.Net, e.Value)
}

// RecoverNetPanic is the shared per-net recover guard: deferred around a
// single-net route, it converts a panic into a not-Found NetRoute and a
// *PanicError carrying the stack. It must be called directly by defer.
//
//grlint:recoverguard the per-net panic isolation seam, exercised by faultinject
func RecoverNetPanic(net string, nr *NetRoute, err *error) {
	if v := recover(); v != nil {
		*nr = NetRoute{Net: net}
		*err = &PanicError{Net: net, Value: v, Stack: debug.Stack()}
	}
}

// routeNetGuarded routes one net with panic isolation and the per-net
// fault-injection seam — the entry the worker pool uses, so one poisoned
// net surfaces as a *PanicError instead of killing the process.
func (r *Router) routeNetGuarded(ctx context.Context, net *layout.Net) (nr NetRoute, err error) {
	defer RecoverNetPanic(net.Name, &nr, &err)
	if ferr := faultinject.Fire(faultinject.RouteNet, net.Name); ferr != nil {
		return NetRoute{Net: net.Name}, ferr
	}
	return r.RouteNetCtx(ctx, net)
}

// searchCtxPool recycles search contexts (node arena, OPEN heap, state
// table) across connection queries. Every worker goroutine of
// Router.RouteLayoutCtx — and every rip-up of congest.Negotiate, which
// routes through the same pool — reuses a warmed context instead of
// reallocating the search bookkeeping per query.
var searchCtxPool = sync.Pool{
	New: func() any { return search.NewContext[State]() },
}

// RoutePoints finds a minimal-cost route between two points.
func (r *Router) RoutePoints(from, to geom.Point) (Route, error) {
	return r.RoutePointsCtx(context.Background(), from, to)
}

// RoutePointsCtx is RoutePoints with cooperative cancellation: when ctx is
// cancelled the search aborts promptly and the context's error is returned.
func (r *Router) RoutePointsCtx(ctx context.Context, from, to geom.Point) (Route, error) {
	return r.RouteConnectionCtx(ctx, []geom.Point{from}, []geom.Point{to}, nil)
}

// validEndpoints checks query endpoints in order and reports the first
// that lies outside the routing area or strictly inside a cell.
func (r *Router) validEndpoints(pts []geom.Point) error {
	for _, p := range pts {
		if !r.ix.InBounds(p) {
			return fmt.Errorf("%w: %v", ErrOutOfBounds, p)
		}
		if cell, blocked := r.ix.PointBlocked(p); blocked {
			return fmt.Errorf("%w: %v in cell %d", ErrBlockedEndpoint, p, cell)
		}
	}
	return nil
}

// RouteConnection finds a minimal-cost route from any source point to the
// nearest (by cost) part of the target set. Target segments admit
// mid-segment attachment, which is what the Steiner construction needs.
func (r *Router) RouteConnection(sources, targetPts []geom.Point, targetSegs []geom.Seg) (Route, error) {
	return r.RouteConnectionCtx(context.Background(), sources, targetPts, targetSegs)
}

// RouteConnectionCtx is RouteConnection with cooperative cancellation.
func (r *Router) RouteConnectionCtx(ctx context.Context, sources, targetPts []geom.Point, targetSegs []geom.Seg) (Route, error) {
	if len(sources) == 0 || (len(targetPts) == 0 && len(targetSegs) == 0) {
		return Route{}, errEmptyQuery
	}
	if err := r.validEndpoints(sources); err != nil {
		return Route{}, err
	}
	if err := r.validEndpoints(targetPts); err != nil {
		return Route{}, err
	}
	scratch := netScratchPool.Get().(*netScratch)
	defer netScratchPool.Put(scratch)
	ts := &scratch.ts
	ts.reset()
	ts.addPoints(targetPts...)
	ts.addSegs(targetSegs...)
	route, err := r.routeConnection(ctx.Done(), sources, ts, 0)
	return route, ctxError(ctx, err)
}

// ctxError rewrites the search package's cancellation sentinel into the
// context's own error, so callers can match context.Canceled or
// context.DeadlineExceeded with errors.Is. Other errors pass through.
func ctxError(ctx context.Context, err error) error {
	if errors.Is(err, search.ErrCancelled) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

// routeConnection is the connection search core with an optional cost
// ceiling (0 = no ceiling): a search that provably cannot produce a route
// costing at most maxCost aborts early and reports not-found. Its callers
// have validated the endpoints and checked that neither set is empty:
// RouteConnectionCtx per query, RouteNetCtx once per net for every
// candidate search of every round. done, when non-nil, cancels the search
// cooperatively; the abort surfaces as search.ErrCancelled (callers with a
// context rewrite it via ctxError).
func (r *Router) routeConnection(done <-chan struct{}, sources []geom.Point, targets *targetSet, maxCost search.Cost) (Route, error) {
	prob := &connProblem{
		gen:         ray.Gen{Ix: r.ix, Mode: r.opts.Mode},
		cost:        r.cost,
		sources:     sources,
		targets:     targets,
		onExpand:    r.opts.OnExpand,
		onGenerate:  r.opts.OnGenerate,
		directional: r.cost.Directional(),
	}
	maxExp := r.opts.MaxExpansions
	if maxExp == 0 {
		maxExp = defaultMaxExpansions
	}
	targets.prepare()
	sctx := searchCtxPool.Get().(*search.Context[State])
	res, err := search.FindWith[State](sctx, prob, search.Options{
		Strategy:      r.opts.Strategy,
		MaxExpansions: maxExp,
		WeightNum:     r.opts.WeightNum,
		WeightDen:     r.opts.WeightDen,
		MaxCost:       maxCost,
		Done:          done,
	})
	searchCtxPool.Put(sctx)
	res.Stats.Generated += prob.collapsed
	if err != nil && !errors.Is(err, search.ErrBudget) {
		return Route{Stats: res.Stats}, err
	}
	out := Route{Stats: res.Stats}
	if !res.Found {
		return out, nil
	}
	pts := make([]geom.Point, 0, len(res.Path))
	for _, s := range res.Path {
		if s.virtual {
			continue
		}
		pts = append(pts, s.At)
	}
	out.Found = true
	out.Points = geom.CompactPath(pts) // pts is ours: compact in place
	out.Length = geom.PathLength(out.Points)
	out.Cost = res.Cost
	return out, nil
}

// NetRoute is the routed tree for one net.
type NetRoute struct {
	// Net names the routed net.
	Net string
	// Found reports whether every terminal was connected.
	Found bool
	// Paths holds one polyline per Steiner attachment, in connection
	// order.
	Paths [][]geom.Point
	// Segments is the flattened tree wiring.
	Segments []geom.Seg
	// Length is the total tree wire length.
	Length geom.Coord
	// Stats accumulates search effort across all attachments.
	Stats search.Stats
	// FailedTerminal names the first terminal that could not be connected
	// (empty when Found).
	FailedTerminal string
}

// netScratch is the reusable working state of RouteNet and
// RouteConnection: the shared target set (the connected points/segments of
// the growing tree plus its box hierarchy), the pin extraction arenas and
// a round's candidate order. Recycled through netScratchPool so the greedy
// rounds of consecutive nets — every worker routes thousands on macro
// layouts — stop re-allocating the same slices.
type netScratch struct {
	ts        targetSet
	pinFlat   []geom.Point
	pins      [][]geom.Point
	remaining []int
	order     []candidate
}

// candidate is one unconnected terminal in a Steiner round: its position
// in the round's remaining list and the lower bound on the cost of any
// route from its pins to the tree.
type candidate struct {
	lb  search.Cost
	pos int
}

// byBoundThenPos orders a round's candidates nearest first, ties by
// position.
func byBoundThenPos(a, b candidate) int {
	if a.lb != b.lb {
		return cmp.Compare(a.lb, b.lb)
	}
	return cmp.Compare(a.pos, b.pos)
}

var netScratchPool = sync.Pool{New: func() any { return &netScratch{} }}

// RouteNet routes a multi-terminal net as an approximate Steiner tree. The
// construction follows the paper: terminals are merged into a growing
// connected set one at a time in minimum-spanning-tree fashion, except that
// every line segment already in the tree — not just the pins — is a
// potential connection point, and every pin of a multi-pin terminal joins
// the connected set when its terminal connects.
func (r *Router) RouteNet(net *layout.Net) (NetRoute, error) {
	return r.RouteNetCtx(context.Background(), net)
}

// RouteNetCtx is RouteNet with cooperative cancellation: when ctx is
// cancelled mid-construction the partial tree (Found false) is returned
// together with the context's error.
//
// Each round connects the unconnected terminal with the cheapest route to
// the tree, ties to the earliest in terminal order (among those left). No
// route from a terminal costs less than its bound, Scale times the
// distance from its nearest pin to the tree (the CostModel contract), so
// the round searches its candidates nearest first and stops once a bound
// shows that no candidate left can beat or tie the best route found. A
// candidate's search carries the best cost as a ceiling (search.Options.
// MaxCost), one less for a candidate later in terminal order, which only a
// strictly cheaper route may replace; the weighted-A* ablation, whose f is
// no lower bound, searches without one. A ceiling or a skip never changes
// a route that is found, so the tree is the one that routing every
// candidate in terminal order would pick, under every cost model, strategy,
// weight and expansion budget; only Stats, the effort, differ.
func (r *Router) RouteNetCtx(ctx context.Context, net *layout.Net) (NetRoute, error) {
	done := ctx.Done()
	out := NetRoute{Net: net.Name}
	if len(net.Terminals) < 2 {
		return out, fmt.Errorf("router: net %q needs at least two terminals", net.Name)
	}
	scratch := netScratchPool.Get().(*netScratch)
	defer netScratchPool.Put(scratch)
	// The connected set starts as the pins of one endpoint of the closest
	// terminal pair (deterministic and cheap); remaining terminals join
	// greedily by cheapest actual route, the adapted-Dijkstra order.
	// Terminal pin slices are extracted once up front into the scratch
	// arena: the greedy rounds below revisit every unconnected terminal per
	// round, and re-extracting was the router's single largest allocation
	// source. The flat backing array is filled completely before the
	// per-terminal views are cut, so later appends cannot move it.
	startIdx := r.pickStartTerminal(net)
	flat := scratch.pinFlat[:0]
	for i := range net.Terminals {
		for _, p := range net.Terminals[i].Pins {
			flat = append(flat, p.Pos)
		}
	}
	scratch.pinFlat = flat
	pins := scratch.pins[:0]
	rest := flat
	for i := range net.Terminals {
		n := len(net.Terminals[i].Pins)
		pins = append(pins, rest[:n:n])
		rest = rest[n:]
	}
	scratch.pins = pins
	remaining := scratch.remaining[:0]
	for i := range net.Terminals {
		if i != startIdx {
			remaining = append(remaining, i)
		}
	}
	scratch.remaining = remaining
	if err := r.validateNet(ctx, net, pins, startIdx, remaining); err != nil {
		return out, err
	}

	// ts is the shared target set: RouteNet appends to it as the tree
	// grows, and every candidate search in a round reads the same box
	// hierarchy (rebuilt before the round's bounds are taken).
	ts := &scratch.ts
	ts.reset()
	ts.addPoints(pins[startIdx]...)
	for len(remaining) > 0 {
		// Bound every candidate, then search them nearest first.
		ts.prepare()
		order := scratch.order[:0]
		for pos, ti := range remaining {
			order = append(order, candidate{lb: lowerBound(pins[ti], ts), pos: pos})
		}
		slices.SortFunc(order, byBoundThenPos)
		scratch.order = order
		var best Route
		bestPos := -1
		for _, c := range order {
			var ceiling search.Cost // 0: none
			if bestPos >= 0 {
				// Every route from c costs at least c.lb, and a tie goes to
				// the earlier position, so no candidate from here on wins.
				if c.lb > best.Cost || (c.lb == best.Cost && c.pos > bestPos) {
					break
				}
				if r.opts.WeightNum == 0 {
					ceiling = best.Cost
					if c.pos > bestPos {
						ceiling-- // only a strictly cheaper route wins
					}
				}
				// A ceiling of 0 (best cost 0, or 1 for a later candidate)
				// is none; the comparison below still decides.
			}
			ti := remaining[c.pos]
			route, err := r.routeConnection(done, pins[ti], ts, ceiling)
			if errors.Is(err, search.ErrCancelled) {
				return out, ctxError(ctx, err) // cancelled: partial tree, no wrapping
			}
			if err != nil {
				return out, fmt.Errorf("net %q terminal %q: %w", net.Name, net.Terminals[ti].Name, err)
			}
			out.Stats.Expanded += route.Stats.Expanded
			out.Stats.Generated += route.Stats.Generated
			out.Stats.Reopened += route.Stats.Reopened
			if route.Stats.MaxOpen > out.Stats.MaxOpen {
				out.Stats.MaxOpen = route.Stats.MaxOpen
			}
			if route.Found && (bestPos < 0 || route.Cost < best.Cost || (route.Cost == best.Cost && c.pos < bestPos)) {
				best, bestPos = route, c.pos
			}
		}
		if bestPos < 0 {
			out.FailedTerminal = net.Terminals[remaining[0]].Name
			return out, nil
		}
		ti := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		// Fold the new path and the terminal's pins into the connected set.
		out.Paths = append(out.Paths, best.Points)
		out.Length += best.Length
		for i := 1; i < len(best.Points); i++ {
			seg := geom.S(best.Points[i-1], best.Points[i])
			out.Segments = append(out.Segments, seg)
			ts.addSegs(seg)
		}
		ts.addPoints(pins[ti]...)
	}
	out.Found = true
	return out, nil
}

// validateNet checks every pin of a net once, before the first round, in
// the order candidate-by-candidate validation met them: the first
// candidate's pins, then the start terminal's (its first search's target
// set), then a pending cancellation (its search would have seen it), then
// each later candidate's pins. So the first error names the same terminal
// it did when every search validated its own endpoints.
func (r *Router) validateNet(ctx context.Context, net *layout.Net, pins [][]geom.Point, startIdx int, remaining []int) error {
	for i, ti := range remaining {
		var err error
		if len(pins[ti]) == 0 || (i == 0 && len(pins[startIdx]) == 0) {
			err = errEmptyQuery
		} else if err = r.validEndpoints(pins[ti]); err == nil && i == 0 {
			err = r.validEndpoints(pins[startIdx])
		}
		if err != nil {
			return fmt.Errorf("net %q terminal %q: %w", net.Name, net.Terminals[ti].Name, err)
		}
		if i == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// lowerBound is Scale times the distance from the nearest of pins to the
// target set, the bound the search heuristic puts on its sources: no route
// from pins costs less.
func lowerBound(pins []geom.Point, ts *targetSet) search.Cost {
	lb := search.Cost(-1)
	for _, p := range pins {
		_, d := ts.nearest(p)
		if c := Scale * d; lb < 0 || c < lb {
			lb = c
		}
	}
	return lb
}

// pickStartTerminal seeds the tree with one endpoint of the closest
// terminal pair (by minimum pin-to-pin Manhattan distance) — the classical
// Prim initialization. Routing the shortest edge first lays down a trunk
// that later terminals can attach to mid-segment, which is where the
// paper's segment-attachment rule wins over a pin-to-pin spanning tree.
func (r *Router) pickStartTerminal(net *layout.Net) int {
	best, bestD := 0, geom.Coord(-1)
	for i := range net.Terminals {
		for j := i + 1; j < len(net.Terminals); j++ {
			for _, p := range net.Terminals[i].Pins {
				for _, q := range net.Terminals[j].Pins {
					d := p.Pos.Manhattan(q.Pos)
					if bestD < 0 || d < bestD {
						best, bestD = i, d
					}
				}
			}
		}
	}
	return best
}

// Validate checks that a route tree is geometrically legal: rectilinear,
// within bounds, and never crossing a cell interior. Tests and the
// experiment harness use it as the ground-truth acceptance check.
func (r *Router) Validate(nr *NetRoute) error {
	for _, s := range nr.Segments {
		if !r.ix.InBounds(s.A) || !r.ix.InBounds(s.B) {
			return fmt.Errorf("net %q: segment %v leaves the routing bounds", nr.Net, s)
		}
		if cell, blocked := r.ix.SegBlocked(s); blocked {
			return fmt.Errorf("net %q: segment %v crosses cell %d", nr.Net, s, cell)
		}
	}
	return nil
}

// SortedSegments returns the net's segments in canonical order, for
// deterministic output.
func (nr *NetRoute) SortedSegments() []geom.Seg {
	segs := make([]geom.Seg, len(nr.Segments))
	for i, s := range nr.Segments {
		segs[i] = s.Canon()
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].A != segs[j].A {
			return segs[i].A.Less(segs[j].A)
		}
		return segs[i].B.Less(segs[j].B)
	})
	return segs
}
