// Package congest models the paper's "channel congestion" extension:
//
//	"Since there are no channels the term is slightly abused, but it refers
//	here to congested passages between adjacent cells. A first-pass route
//	of all nets would reveal congested areas … A second route of the
//	affected nets could penalize those paths which chose the congested
//	area."
//
// Extract enumerates the passages — free corridors between facing cells and
// between cells and the routing boundary — with a wire capacity derived
// from the gap width and the wiring pitch; it is near-linear in cells
// (plane-sweep candidates plus interval-tree intrusion stabs, see
// extract.go), with ExtractEdit splicing a passage list incrementally
// after an obstacle edit. BuildMap counts how many nets
// run through each passage; AddNet/RemoveNet splice single nets in and out
// incrementally, and Renumber drops removed nets from a copy. Negotiate
// iterates the paper's reroute loop to
// convergence, PathFinder-style: after a parallel first pass, each pass
// sequentially rips one overflowed net at a time out of the live map and
// reroutes it against a penalty that combines the live present overflow
// with an accumulating history of past overflow, so successive nets
// negotiate instead of dodging congestion in lockstep. The paper's
// original two-pass flow is its MaxPasses-2, zero-history special case.
package congest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/search"
)

// Boundary is the pseudo-cell index used when a passage separates a cell
// from the routing boundary.
const Boundary = -1

// Passage is one free corridor between two facing obstacles.
type Passage struct {
	// Between are the two cell indices, Boundary for the routing edge.
	Between [2]int
	// Rect is the corridor region.
	Rect geom.Rect
	// Vertical reports the traffic direction: a vertical passage lies
	// between horizontally adjacent cells and carries north–south wires.
	Vertical bool
	// Width is the gap size across the corridor.
	Width geom.Coord
	// Capacity is the number of wires that fit at the given pitch.
	Capacity int
}

// CrossSection returns the line across the corridor that through-traffic
// must cross: the horizontal midline of a vertical passage, and vice versa.
func (p Passage) CrossSection() geom.Seg {
	c := p.Rect.Center()
	if p.Vertical {
		return geom.S(geom.Pt(p.Rect.MinX, c.Y), geom.Pt(p.Rect.MaxX, c.Y))
	}
	return geom.S(geom.Pt(c.X, p.Rect.MinY), geom.Pt(c.X, p.Rect.MaxY))
}

// sectionEntry is one passage cross-section filed in a sectionIndex: the
// fixed coordinate of the section line and its span along the other axis.
type sectionEntry struct {
	At      geom.Coord // the section's fixed coordinate (y if horizontal)
	Lo, Hi  geom.Coord // the section's extent along its own axis
	Passage int        // index into Map.Passages
}

// sectionIndex answers "which passage cross-sections does this axis-parallel
// segment touch" by binary search instead of a linear scan over every
// passage. Horizontal and vertical sections are filed separately, each
// sorted by the fixed coordinate of the section line; a query walks only the
// entries whose line falls inside the travel segment's bounding box. The
// contact rule is exactly geom.Seg.Intersects (bounding boxes overlap), so
// replacing the scan never changes which crossings are counted.
type sectionIndex struct {
	horiz []sectionEntry // sorted by At (the section's y)
	vert  []sectionEntry // sorted by At (the section's x)
}

func newSectionIndex(passages []Passage) *sectionIndex {
	ix := &sectionIndex{}
	for pi, p := range passages {
		xs := p.CrossSection()
		e := sectionEntry{Passage: pi}
		if xs.Horizontal() {
			e.At = xs.A.Y
			e.Lo, e.Hi = geom.Min(xs.A.X, xs.B.X), geom.Max(xs.A.X, xs.B.X)
			ix.horiz = append(ix.horiz, e)
		} else {
			e.At = xs.A.X
			e.Lo, e.Hi = geom.Min(xs.A.Y, xs.B.Y), geom.Max(xs.A.Y, xs.B.Y)
			ix.vert = append(ix.vert, e)
		}
	}
	byAt := func(es []sectionEntry) func(a, b int) bool {
		return func(a, b int) bool {
			if es[a].At != es[b].At {
				return es[a].At < es[b].At
			}
			return es[a].Passage < es[b].Passage
		}
	}
	sort.Slice(ix.horiz, byAt(ix.horiz))
	sort.Slice(ix.vert, byAt(ix.vert))
	return ix
}

// visit calls fn for every passage whose cross-section the travel segment
// touches, in unspecified order, each at most once per call.
func (ix *sectionIndex) visit(travel geom.Seg, fn func(pi int)) {
	b := travel.Bounds() // normalized min/max corners
	for _, e := range sectionsAt(ix.horiz, b.MinY, b.MaxY) {
		if e.Lo <= b.MaxX && e.Hi >= b.MinX {
			fn(e.Passage)
		}
	}
	for _, e := range sectionsAt(ix.vert, b.MinX, b.MaxX) {
		if e.Lo <= b.MaxY && e.Hi >= b.MinY {
			fn(e.Passage)
		}
	}
}

// tolls appends, for every passage whose cross-section the ray from `from`
// in direction d to coordinate stop touches, a toll at the distance from
// `from` to the section's nearest point, priced by price(pi); a zero price
// appends nothing. A segment of the ray with length t touches exactly the
// sections at distance at most t (closed contact, as visit counts it), so
// the tolls it reaches sum to what visit finds for it.
func (ix *sectionIndex) tolls(dst []router.Toll, from geom.Point, d geom.Dir, stop geom.Coord, price func(pi int) search.Cost) []router.Toll {
	horiz := d.Horizontal()
	along, across := from.X, from.Y
	if !horiz {
		along, across = from.Y, from.X
	}
	lo, hi := geom.Min(along, stop), geom.Max(along, stop)
	// A section on the ray's line spans [Lo, Hi] along it; one across the
	// line sits at At along it.
	onLine, acrossLine := ix.horiz, ix.vert
	if !horiz {
		onLine, acrossLine = ix.vert, ix.horiz
	}
	toll := func(pi int, near, far geom.Coord) {
		dist := near - along // the section's nearer end, seen from along
		if stop < along {
			dist = along - far
		}
		if c := price(pi); c > 0 {
			dst = append(dst, router.Toll{At: max(dist, 0), Cost: c})
		}
	}
	for _, e := range sectionsAt(onLine, across, across) {
		if e.Lo <= hi && e.Hi >= lo {
			toll(e.Passage, e.Lo, e.Hi)
		}
	}
	for _, e := range sectionsAt(acrossLine, lo, hi) {
		if e.Lo <= across && e.Hi >= across {
			toll(e.Passage, e.At, e.At)
		}
	}
	return dst
}

// sectionsAt returns the entries whose line coordinate lies in [lo, hi].
func sectionsAt(entries []sectionEntry, lo, hi geom.Coord) []sectionEntry {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].At >= lo })
	j := i
	for j < len(entries) && entries[j].At <= hi {
		j++
	}
	return entries[i:j]
}

// Map is the congestion state of a routed layout. It is mutable: AddNet and
// RemoveNet splice a single net's route in and out incrementally, which is
// what lets the sequential rip-up loop keep live usage between nets instead
// of rebuilding the whole map once per pass.
type Map struct {
	// Passages lists the corridors.
	Passages []Passage
	// Usage counts distinct nets crossing each passage's cross-section.
	Usage []int
	// netsThrough records which net indices use each passage, ascending.
	netsThrough [][]int
	// index locates cross-sections without scanning all passages.
	index *sectionIndex
	// mark/stamp de-duplicate passages within one AddNet/RemoveNet call: a
	// net crossing a section with several segments still counts once.
	mark  []int
	stamp int
}

// BuildMap counts passage usage for a set of routed nets (one segment list
// per net).
func BuildMap(passages []Passage, nets [][]geom.Seg) *Map {
	m := &Map{
		Passages:    passages,
		Usage:       make([]int, len(passages)),
		netsThrough: make([][]int, len(passages)),
		index:       newSectionIndex(passages),
	}
	for ni, segs := range nets {
		m.AddNet(ni, segs)
	}
	return m
}

// ensureScratch lazily allocates the dedup marks the incremental
// operations share.
func (m *Map) ensureScratch() {
	if len(m.mark) < len(m.Passages) {
		m.mark = make([]int, len(m.Passages))
		m.stamp = 0
	}
}

// AddNet counts net ni's route into the map: usage rises by one on every
// passage whose cross-section any of the segments touches (once per
// passage, however many segments cross it), and ni is filed in the
// passage's net list. The inverse of RemoveNet.
func (m *Map) AddNet(ni int, segs []geom.Seg) {
	m.ensureScratch()
	m.stamp++
	for _, s := range segs {
		m.index.visit(s, func(pi int) {
			if m.mark[pi] == m.stamp {
				return
			}
			m.mark[pi] = m.stamp
			nt := m.netsThrough[pi]
			k := sort.SearchInts(nt, ni)
			if k < len(nt) && nt[k] == ni {
				return // already counted
			}
			nt = append(nt, 0)
			copy(nt[k+1:], nt[k:])
			nt[k] = ni
			m.netsThrough[pi] = nt
			m.Usage[pi]++
		})
	}
}

// RemoveNet rips net ni's route out of the map. segs must be the same
// segment list the net was added with (the net's current route): the
// sequential rip-up loop removes a net, reroutes it against the live
// remaining usage, and adds the new route back.
func (m *Map) RemoveNet(ni int, segs []geom.Seg) {
	m.ensureScratch()
	m.stamp++
	for _, s := range segs {
		m.index.visit(s, func(pi int) {
			if m.mark[pi] == m.stamp {
				return
			}
			m.mark[pi] = m.stamp
			nt := m.netsThrough[pi]
			k := sort.SearchInts(nt, ni)
			if k < len(nt) && nt[k] == ni {
				m.netsThrough[pi] = append(nt[:k], nt[k+1:]...)
				m.Usage[pi]--
			}
		})
	}
}

// Clone returns a deep copy of the mutable state (usage and net lists),
// packed into one backing array without the dedup scratch; passages and the
// section index are immutable and shared. The engine installs a clone of a
// negotiation's live map, so the session it publishes shares nothing a
// later run mutates.
func (m *Map) Clone() *Map { return m.copyLists(nil) }

// Renumber returns a copy of the map with its nets renumbered after a
// removal: next[ni] is net ni's new index, or -1 for a net dropped from
// the map together with its route. next has an entry for every net of the
// map and keeps the kept nets in their old relative order, so each
// passage's list stays ascending. The result equals BuildMap over the kept
// routes in their new numbering; passages and the section index are
// shared, as by Clone.
func (m *Map) Renumber(next []int) *Map { return m.copyLists(next) }

// copyLists copies the map, passing every net index through next (nil
// keeps it). The copy's net lists are sub-slices of one backing array, each
// capped at its own length, so AddNet on one passage reallocates that list
// instead of writing into its neighbour's, and neither the copy nor m can
// write into the other's lists. Usage[pi] is the length of passage pi's
// list, which AddNet and RemoveNet keep true of every map.
func (m *Map) copyLists(next []int) *Map {
	total := 0
	for _, nt := range m.netsThrough {
		total += len(nt)
	}
	c := &Map{
		Passages:    m.Passages,
		Usage:       make([]int, len(m.Usage)),
		netsThrough: make([][]int, len(m.netsThrough)),
		index:       m.index,
	}
	flat := make([]int, 0, total)
	for pi, nt := range m.netsThrough {
		start := len(flat)
		if next == nil {
			flat = append(flat, nt...)
		} else {
			for _, ni := range nt {
				if k := next[ni]; k >= 0 {
					flat = append(flat, k)
				}
			}
		}
		if n := len(flat); n > start {
			c.netsThrough[pi] = flat[start:n:n]
			c.Usage[pi] = n - start
		}
	}
	return c
}

// nextRipNet returns the lowest-indexed net that crosses a currently
// overflowed passage and has not been ripped this pass, or -1 when every
// such net has had its turn (or no overflow remains). Because it reads the
// live map, a net pushed into overflow by an earlier rip-up in the same
// pass becomes eligible immediately — displacement chains resolve within
// one pass instead of leaking one link per pass.
func (m *Map) nextRipNet(ripped []bool) int {
	best := -1
	for pi, u := range m.Usage {
		if u > m.Passages[pi].Capacity {
			for _, ni := range m.netsThrough[pi] { // ascending: first unripped is the passage's min
				if !ripped[ni] {
					if best < 0 || ni < best {
						best = ni
					}
					break
				}
			}
		}
	}
	return best
}

// Overflowed returns the indices of passages whose usage exceeds capacity.
func (m *Map) Overflowed() []int {
	var out []int
	for i, u := range m.Usage {
		if u > m.Passages[i].Capacity {
			out = append(out, i)
		}
	}
	return out
}

// TotalOverflow sums usage minus capacity over all overflowed passages.
func (m *Map) TotalOverflow() int {
	total := 0
	for i, u := range m.Usage {
		if over := u - m.Passages[i].Capacity; over > 0 {
			total += over
		}
	}
	return total
}

// AffectedNets returns the sorted set of net indices that use any
// overflowed passage.
func (m *Map) AffectedNets() []int {
	// The map is membership-only; the result is collected during the slice
	// walk, so no map iteration order can reach the (sorted) output.
	seen := map[int]bool{}
	var out []int
	for _, pi := range m.Overflowed() {
		for _, ni := range m.netsThrough[pi] {
			if !seen[ni] {
				seen[ni] = true
				out = append(out, ni)
			}
		}
	}
	sort.Ints(out)
	return out
}

// livePenalty is the sequential rip-up cost term, a ray pricer. It reads
// the map's usage at query time: the rip-up loop updates the map between
// nets, so a net rerouting later in the pass immediately sees the passages
// earlier nets just filled (or vacated) — the PathFinder mechanism that
// breaks the lockstep oscillation of whole-pass simultaneous reroutes. The
// router evaluates it once per ray, at the ray's first successor the
// search keeps: one scan of the sections the ray touches prices every
// successor on it, and nothing of it outlives the ray.
//
// Crossing passage pi costs *weight*present + hWeight*gain*history[pi]
// length units. present is 1 when the passage cannot take one more net
// without exceeding capacity (usage >= capacity): the net being priced is
// ripped out of the map while it reroutes, so "usage" is everyone else,
// and the question the cost answers is "would my crossing overflow it".
// Zero hWeight falls back to the coupled classic step (*weight per unit
// of history). The present weight is read through a pointer so Negotiate
// can escalate it between passes (the present-cost schedule, see
// Config.WeightStep) without rebuilding the pricer or the router.
func (m *Map) livePenalty(weight *geom.Coord, hWeight geom.Coord, gain int, history []int) router.RayPenalty {
	fixedHW := hWeight > 0
	price := func(pi int) search.Cost {
		var units geom.Coord
		if m.Usage[pi] >= m.Passages[pi].Capacity {
			units = *weight
		}
		if gain > 0 && pi < len(history) {
			hw := hWeight
			if !fixedHW {
				hw = *weight
			}
			units += hw * geom.Coord(gain) * geom.Coord(history[pi])
		}
		return router.Scale * search.Cost(units)
	}
	return func(dst []router.Toll, from geom.Point, d geom.Dir, stop geom.Coord) []router.Toll {
		return m.index.tolls(dst, from, d, stop, price)
	}
}

// DefaultMaxPasses bounds Negotiate when Config.MaxPasses is zero.
const DefaultMaxPasses = 8

// Config parameterizes the negotiated-congestion engine.
type Config struct {
	// Pitch is the wire pitch used for passage capacity (must be > 0).
	Pitch geom.Coord
	// Weight is the base detour, in length units, a route accepts to avoid
	// one congested crossing.
	Weight geom.Coord
	// MaxPasses bounds the loop (counting the initial route as pass 1);
	// zero means DefaultMaxPasses.
	MaxPasses int
	// Workers as in Router.RouteLayout; it parallelizes the first
	// (penalty-free) pass only. Rip-up passes are inherently sequential —
	// each net must see its predecessors' reroutes — so the outcome is
	// worker-count independent.
	Workers int
	// HistoryGain scales the accumulated overflow history in the penalty
	// (see Map.livePenalty). Zero disables history: every reroute pass
	// then prices only present overflow, as the paper's second pass does.
	HistoryGain int
	// HistoryWeight, when positive, decouples the history step from the
	// present weight: each crossing then costs Weight*present +
	// HistoryWeight*HistoryGain*history length units instead of
	// Weight*(present + HistoryGain*history). A small HistoryWeight turns
	// history into a gentle symmetry-breaker — enough to unstick nets
	// deadlocked on at-capacity corridors, without the saturation that a
	// full-weight history term builds up on large grids (once every
	// corridor carries old history, relative costs flatten and the loop
	// stops making progress). Zero keeps the coupled classic behaviour.
	HistoryWeight geom.Coord
	// WeightStep, when positive, enables the PathFinder present-cost
	// schedule: the price of an over-capacity crossing starts at Weight on
	// the first reroute pass and rises by WeightStep every pass after it.
	// Early passes then spread nets with short cheap detours; late passes
	// force the last stubborn overflow out through longer escape chains
	// that a flat weight would never justify. Zero keeps the price flat
	// (and with HistoryGain 0 lets the engine detect fixed points early).
	WeightStep geom.Coord
	// Checkpoint, when non-nil, receives a restartable state blob at every
	// pass boundary and — when CheckpointEvery is positive — after every
	// CheckpointEvery rip-ups inside a pass. The blob is the hook's to
	// keep: it is freshly allocated per call and shares no state with the
	// live run. The hook runs inline on the negotiation goroutine; a
	// non-nil error aborts the run (a caller asking for crash safety must
	// not silently lose a checkpoint). On cancellation one final blob is
	// delivered before the partial pass is recorded, so a resumed run
	// completes the interrupted pass exactly as the uninterrupted one
	// would have.
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery sets the mid-pass checkpoint cadence in rip-ups;
	// zero (or negative) checkpoints at pass boundaries only.
	CheckpointEvery int
	// OnPass, when non-nil, observes every recorded pass as it completes:
	// n is the 1-based pass number within the run. The hook runs inline on
	// the negotiation goroutine — keep it cheap. It is the progress feed
	// behind the public Engine's observer.
	OnPass func(n int, p Pass)
	// BaseOptions is the router configuration every pass routes with: the
	// first (penalty-free) pass uses it as-is, and reroute passes layer
	// the congestion penalty over BaseOptions.Cost. The zero value keeps
	// the historical behavior (default options, plain length cost). This
	// is how the public Engine threads its corner rule, successor mode,
	// expansion budget and trace hooks through the congestion flows.
	BaseOptions router.Options
}

// Pass summarizes one pass of the negotiated loop.
type Pass struct {
	// Overflow is the total passage overflow after the pass.
	Overflow int
	// Overflowed counts passages over capacity after the pass.
	Overflowed int
	// Rerouted lists the nets ripped up and rerouted in the pass, in
	// rip-up order (empty for pass 1, which routes everything
	// penalty-free): every net through the pass-start overflow, plus any
	// net the pass's own reroutes pushed into overflow (so the list can
	// extend beyond the pass-start affected set). A listed net may have
	// rerouted onto its previous geometry.
	Rerouted []string
	// TotalLength is the whole-layout wirelength after the pass.
	TotalLength geom.Coord
	// Routed counts nets fully routed (Found) after the pass.
	Routed int
	// Stats is the whole-layout search effort after the pass (carried-over
	// nets keep their earlier effort, so passes are comparable).
	Stats search.Stats
	// Elapsed is the wall-clock time of the pass.
	Elapsed time.Duration
}

// NegotiateResult reports an N-pass negotiated-congestion run.
type NegotiateResult struct {
	// Results holds the whole-layout routing state after each pass.
	Results []*router.LayoutResult
	// Map is the run's one live congestion map, mutated in place as the
	// run went (RepairCtx's is the map it was given). It counts exactly
	// the routes the run ended with, Final()'s when a pass was recorded,
	// also after a cancellation. An earlier pass's map is BuildMap over its
	// Results entry.
	Map *Map
	// Passes summarizes each pass, in order.
	Passes []Pass
	// PassesBefore counts the passes a resumed run's checkpoint had
	// recorded before NegotiateResume continued it, 0 for a fresh run:
	// Passes[i] is pass PassesBefore+i+1 of the whole negotiation.
	PassesBefore int
	// History is the final per-passage overflow history (the number of
	// passes each passage ended over capacity).
	History []int
	// Converged reports that the final pass has zero overflow.
	Converged bool
	// Stalled reports that the loop stopped early because a pass changed
	// no route and no history term could alter future passes.
	Stalled bool
	// Panics collects per-net panics recovered during the run (see
	// router.PanicError): a net whose reroute panicked keeps its previous
	// route and the run continues. Empty in healthy runs.
	Panics []*router.PanicError
}

// Final returns the routing state after the last pass.
func (r *NegotiateResult) Final() *router.LayoutResult {
	return r.Results[len(r.Results)-1]
}

// BestPass returns the index of the best recorded pass: minimum overflow,
// ties broken by most nets routed, then by recency. A deadline-bounded run
// uses it to keep the best state seen rather than the last partial pass
// (overflow is not monotone across passes — a late pass interrupted
// mid-displacement-chain can be worse than an earlier one). Returns -1 when
// no pass was recorded.
func (r *NegotiateResult) BestPass() int {
	best := -1
	for i, p := range r.Passes {
		if best < 0 ||
			p.Overflow < r.Passes[best].Overflow ||
			(p.Overflow == r.Passes[best].Overflow && p.Routed >= r.Passes[best].Routed) {
			best = i
		}
	}
	return best
}

// negotiator is the shared engine behind Negotiate, RepairCtx and
// NegotiateResume: a live map, the routing state after the latest pass, one
// penalized router whose cost closure reads the map/history/present-weight
// in place, and the recorded result. It must be used through a pointer (the
// penalty closure captures &presWeight).
type negotiator struct {
	l         *layout.Layout
	cfg       Config
	m         *Map
	res       *NegotiateResult
	cur       *router.LayoutResult
	penalized *router.Router
	// presWeight is the live present-overflow price; beginPass escalates it
	// per the WeightStep schedule and the penalty closure reads it through
	// a pointer.
	presWeight geom.Coord
	// reroutePass counts started reroute passes (the weight-schedule
	// ordinal): reroute pass k prices an over-capacity crossing at
	// Weight + k*WeightStep.
	reroutePass int
	// passOffset counts passes recorded before this negotiator ran — zero
	// for a fresh run, the checkpoint's PassesRecorded for a resumed one —
	// so MaxPasses bounds the whole logical run, not each resume leg.
	passOffset int
}

// newNegotiator wires a negotiator over an existing live map. history, when
// non-nil, seeds the per-passage overflow history (the ECO repair continues
// the session's accumulated history); it is copied.
func newNegotiator(l *layout.Layout, ix *plane.Index, cfg Config, m *Map, history []int) *negotiator {
	ng := &negotiator{l: l, cfg: cfg, m: m, presWeight: cfg.Weight}
	ng.res = &NegotiateResult{Map: m, History: make([]int, len(m.Passages))}
	copy(ng.res.History, history)
	// One penalized router serves every reroute: the penalty closure reads
	// the live map, the history slice, and the escalating present weight,
	// all mutated in place as the loop runs. Each RouteNet call recycles
	// the pooled search context, so the sequential loop allocates no
	// per-net search state. The caller's base cost model (corner rule and
	// friends) stays in effect underneath the congestion penalty.
	opts := cfg.BaseOptions
	opts.Cost = router.PenaltyCost{
		Base:    cfg.BaseOptions.Cost,
		Penalty: m.livePenalty(&ng.presWeight, cfg.HistoryWeight, cfg.HistoryGain, ng.res.History),
	}
	ng.penalized = router.New(ix, opts)
	return ng
}

// record snapshots the current state as one pass and feeds the OnPass hook.
func (ng *negotiator) record(rerouted []string) {
	p := Pass{
		Overflow:    ng.m.TotalOverflow(),
		Overflowed:  len(ng.m.Overflowed()),
		Rerouted:    rerouted,
		TotalLength: ng.cur.TotalLength,
		Routed:      len(ng.cur.Nets) - len(ng.cur.Failed),
		Stats:       ng.cur.Stats,
		Elapsed:     ng.cur.Elapsed,
	}
	ng.res.Results = append(ng.res.Results, ng.cur)
	ng.res.Passes = append(ng.res.Passes, p)
	if ng.cfg.OnPass != nil {
		ng.cfg.OnPass(len(ng.res.Passes), p)
	}
}

// PassState is the rip state of one in-progress rip-up pass: what a
// mid-pass checkpoint carries beside its routes (Checkpoint.Pass) and what
// NegotiateResume restores. The pass prologue (beginPass) is not part of
// it: it runs once per pass, before the first checkpoint can observe the
// pass.
type PassState struct {
	// Changed reports whether any route moved so far in the pass (feeds
	// the stall detection when the pass completes).
	Changed bool
	// Ripped flags the nets already ripped this pass, by net index.
	Ripped []bool
	// Initial is the pass's seed rip order; InitialPos is the next index
	// into it still to process.
	Initial    []int
	InitialPos int
	// Rerouted lists the nets ripped and rerouted so far this pass, in rip
	// order (the pass's Pass.Rerouted prefix).
	Rerouted []string
}

// passRun is one in-progress rip-up pass: its rip state, the routing state
// under construction and the checkpoint cadence counter.
type passRun struct {
	PassState
	// next is the routing state under construction (the previous pass's
	// routes with reroutes spliced in as they land).
	next *router.LayoutResult
	// sinceCkpt counts rip-ups since the last mid-pass checkpoint.
	sinceCkpt int
}

// beginPass opens a sequential rip-up pass seeded with the rip order
// initial, splicing its reroutes into next: a copy of the previous pass's
// routes, or RepairCtx's cur itself. It accrues history for the passages
// overflowed at pass start (overflow still present when the run ends is
// folded in by finish) and sets the pass's present weight per the schedule
// (Config.WeightStep).
func (ng *negotiator) beginPass(initial []int, next *router.LayoutResult) *passRun {
	for _, pi := range ng.m.Overflowed() {
		ng.res.History[pi]++
	}
	ng.presWeight = ng.cfg.Weight + ng.cfg.WeightStep*geom.Coord(ng.reroutePass)
	ng.reroutePass++
	return &passRun{
		PassState: PassState{Ripped: make([]bool, len(ng.l.Nets)), Initial: initial},
		next:      next,
	}
}

// ripRoute reroutes one net for the rip-up loop, isolating panics: a panic
// anywhere in the per-net search surfaces as a *router.PanicError instead
// of unwinding the whole run. The reroute fault-injection seam fires here,
// inside the guard.
func (ng *negotiator) ripRoute(ctx context.Context, ni int) (nr router.NetRoute, err error) {
	name := ng.l.Nets[ni].Name
	defer router.RecoverNetPanic(name, &nr, &err)
	if ferr := faultinject.Fire(faultinject.Reroute, name); ferr != nil {
		return router.NetRoute{Net: name}, ferr
	}
	return ng.penalized.RouteNetCtx(ctx, &ng.l.Nets[ni])
}

// runPassFrom drives a rip-up pass from the given (fresh or restored)
// state: every net of the seed order is ripped out of the live map,
// rerouted against the live present-plus-history penalty (livePenalty),
// and spliced back in — so every net immediately sees the congestion state
// its predecessors left behind, which is what keeps identically-priced nets
// from dodging congestion in lockstep and oscillating. The pass then
// extends, worklist-style, to nets its own reroutes pushed into overflow
// (each net moves at most once per pass, so the loop terminates). changed
// reports whether any route actually moved.
//
// On cancellation the pass stops between nets — a net interrupted
// mid-search keeps its previous route and the map stays consistent with the
// recorded routing state — the partial pass is recorded, and the context's
// error is returned, joined with a checkpoint's that failed on the way out.
// Any other routing error aborts without recording.
func (ng *negotiator) runPassFrom(ctx context.Context, st *passRun) (changed bool, err error) {
	start := time.Now()
	m := ng.m
	rip := func(ni int) error {
		st.Ripped[ni] = true
		old := st.next.Nets[ni]
		m.RemoveNet(ni, old.Segments)
		nr, rerr := ng.ripRoute(ctx, ni)
		if rerr != nil {
			// Splice the old route back so the map stays consistent with
			// the routing state we are about to record.
			m.AddNet(ni, old.Segments)
			var pe *router.PanicError
			if errors.As(rerr, &pe) {
				// Poisoned net: it keeps its previous route, the panic is
				// remembered, and the pass goes on — one bad net must not
				// kill a whole-layout run.
				ng.res.Panics = append(ng.res.Panics, pe)
				return nil
			}
			if ctx.Err() != nil {
				// Interrupted mid-reroute: the net kept its old route, so
				// a resumed run must rip it again.
				st.Ripped[ni] = false
			}
			return rerr
		}
		m.AddNet(ni, nr.Segments)
		if !sameRoute(&old, &nr) {
			st.Changed = true
		}
		st.next.Nets[ni] = nr
		st.Rerouted = append(st.Rerouted, ng.l.Nets[ni].Name)
		if every := ng.cfg.CheckpointEvery; every > 0 {
			if st.sinceCkpt++; st.sinceCkpt >= every {
				st.sinceCkpt = 0
				return ng.checkpoint(st)
			}
		}
		return nil
	}
	// Every net of the initial set gets ripped, in the given (ascending)
	// order — even when an earlier rip-up already drained its passage. That
	// is what lets a net with a free alternative vacate a tight corridor
	// for a pinned neighbor; skipping "already drained" nets leaves the
	// same low-indexed nets doing all the moving while the one net whose
	// move would actually release capacity is never consulted.
	for ; st.InitialPos < len(st.Initial); st.InitialPos++ {
		if err = ctx.Err(); err != nil {
			break
		}
		if st.Ripped[st.Initial[st.InitialPos]] {
			continue
		}
		if err = rip(st.Initial[st.InitialPos]); err != nil {
			break
		}
	}
	// Then the worklist: rip the lowest-indexed net through any
	// live-overflowed passage until none is left, so displacement chains
	// resolve within one pass instead of leaking one link per pass.
	for err == nil {
		if err = ctx.Err(); err != nil {
			break
		}
		ni := m.nextRipNet(st.Ripped)
		if ni < 0 {
			break
		}
		err = rip(ni)
	}
	if err != nil && ctx.Err() == nil {
		return st.Changed, err // real routing failure: nothing recorded
	}
	if err != nil {
		// Cancelled: deliver a final restartable blob before the partial
		// pass is recorded. The blob, not the recorded partial pass, is
		// the resume point — a resumed run finishes this pass exactly as
		// the uninterrupted run would have, rather than double-counting
		// it against MaxPasses. Whatever failed on the way out — this
		// delivery, or a mid-pass checkpoint the cancellation overtook —
		// the pass is still recorded, as on any cancellation: a failed
		// delivery leaves the previous blob as the resume point, and the
		// failure is returned joined with the context's error, so the
		// caller sees the interruption as well as the failure.
		if !errors.Is(err, ctx.Err()) {
			err = errors.Join(ctx.Err(), err)
		}
		if cerr := ng.checkpoint(st); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	st.next.Finalize(start)
	ng.cur = st.next
	ng.record(st.Rerouted)
	return st.Changed, err
}

// run is the pass loop behind Negotiate, RepairCtx and NegotiateResume.
// first, when non-nil, is a pass to run before any stop test: RepairCtx's
// dirty-seeded pass, or the interrupted pass of a mid-pass checkpoint.
// Every later pass rips the nets through the overflowed passages. The loop
// stops when the (offset-adjusted) pass budget is spent, on cancellation,
// at zero overflow, or at a fixed point. After every pass it delivers a
// pass-boundary checkpoint. A cancelled run returns what it recorded with
// the context's error; any other routing or hook error returns no result.
func (ng *negotiator) run(ctx context.Context, first *passRun) (*NegotiateResult, error) {
	maxPasses := ng.cfg.MaxPasses
	if maxPasses <= 0 {
		maxPasses = DefaultMaxPasses
	}
	for st := first; ; st = nil {
		if st == nil {
			if ng.passOffset+len(ng.res.Passes) >= maxPasses {
				break
			}
			if err := ctx.Err(); err != nil {
				return ng.finish(), err
			}
			if ng.m.TotalOverflow() == 0 {
				break
			}
			st = ng.beginPass(ng.m.AffectedNets(),
				&router.LayoutResult{Nets: append([]router.NetRoute(nil), ng.cur.Nets...)})
		}
		changed, err := ng.runPassFrom(ctx, st)
		if err != nil {
			if ctx.Err() != nil {
				return ng.finish(), err
			}
			return nil, err
		}
		if err := ng.checkpoint(nil); err != nil {
			return nil, err
		}
		if !changed && ng.cfg.HistoryGain <= 0 && ng.cfg.WeightStep <= 0 {
			// Fixed point: the same penalties would reproduce the same
			// routes forever. With history or a weight schedule the
			// penalty keeps growing, so an unchanged pass is not final and
			// the loop continues. The run only counts as stalled when
			// overflow is left: a clean repair pass that reproduced a dirty
			// net's route is just done.
			ng.res.Stalled = ng.m.TotalOverflow() > 0
			break
		}
	}
	return ng.finish(), nil
}

// finish folds still-present overflow into the history (beginPass accrues
// history before each reroute, so overflow left in the final map has not
// been counted yet; a no-op when converged) and stamps Converged.
func (ng *negotiator) finish() *NegotiateResult {
	for _, pi := range ng.m.Overflowed() {
		ng.res.History[pi]++
	}
	ng.res.Converged = ng.m.TotalOverflow() == 0
	return ng.res
}

// Negotiate iterates the paper's congestion loop to convergence,
// PathFinder-style, over a caller-prepared obstacle index and passage set
// (passages must have been extracted from ix). Pass 1 routes every net
// penalty-free (in parallel across cfg.Workers) and measures passage
// overflow. Each later pass is a sequential rip-up over the nets through
// overflowed passages, in deterministic (ascending net index) order,
// extended worklist-style to nets the pass's own reroutes pushed into
// overflow (see negotiator.runPassFrom). The loop stops when overflow
// reaches zero (Converged), when MaxPasses is exhausted, or when a pass
// changes nothing and — with HistoryGain and WeightStep zero — no future
// pass could differ (Stalled). The rip-up order is fixed, so results do not
// depend on the worker count. Cancellation is cooperative: on cancel the
// passes completed so far — including a consistent partial final pass — are
// returned together with the context's error.
func Negotiate(ctx context.Context, l *layout.Layout, ix *plane.Index, passages []Passage, cfg Config) (*NegotiateResult, error) {
	first, err := router.New(ix, cfg.BaseOptions).RouteLayoutCtx(ctx, l, cfg.Workers)
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	m := BuildMap(passages, first.NetSegments())
	ng := newNegotiator(l, ix, cfg, m, nil)
	ng.cur = first
	ng.res.Panics = append(ng.res.Panics, first.Panics...)
	ng.record(nil)
	if err != nil {
		return ng.finish(), err // cancelled during the first pass
	}
	if err := ng.checkpoint(nil); err != nil {
		return nil, err
	}
	return ng.run(ctx, nil)
}

// RepairCtx is the incremental (ECO) entry point: instead of routing the
// whole layout from scratch it reroutes only the dirty nets of an
// already-routed layout against the live map, then drains any overflow the
// edit (or the reroutes) created, with the same sequential rip-up passes as
// Negotiate.
//
// l, ix and passages describe the edited layout (passages extracted from
// ix). cur must hold one NetRoute per net of l, in layout order — empty
// not-Found entries for nets that have never been routed — and m must be
// consistent with cur: exactly the segments of every route counted.
// history, when non-nil, seeds the per-passage overflow history so an
// editing session keeps its accumulated pressure (pass nil after edits that
// changed the passage set). dirty lists the net indices that must be
// rerouted; duplicates are ignored.
//
// The first recorded pass rips the dirty nets in ascending index order and
// extends worklist-style to every net in an overflowed passage — the
// "newly-overflowed victims" of the edit. Later passes run exactly like
// Negotiate's. Unlike Negotiate there is no initial full-route pass, which
// is the point: untouched nets keep their routes byte-identical.
//
// m is mutated in place and cur is taken over: the first pass splices its
// reroutes into cur itself rather than into a copy, so cur becomes that
// pass's recorded state (on a routing error, a partial one the caller must
// discard). On return (including cancellation) the final recorded state,
// m, and the returned History are mutually consistent.
func RepairCtx(ctx context.Context, l *layout.Layout, ix *plane.Index, passages []Passage, m *Map, cur *router.LayoutResult, dirty []int, cfg Config, history []int) (*NegotiateResult, error) {
	if len(cur.Nets) != len(l.Nets) {
		return nil, fmt.Errorf("congest: repair state has %d nets, layout %d", len(cur.Nets), len(l.Nets))
	}
	for _, ni := range dirty {
		if ni < 0 || ni >= len(l.Nets) {
			return nil, fmt.Errorf("congest: dirty net index %d out of range [0,%d)", ni, len(l.Nets))
		}
	}
	work := append([]int(nil), dirty...)
	sort.Ints(work)
	ng := newNegotiator(l, ix, cfg, m, history)
	ng.cur = cur
	if len(work) == 0 && m.TotalOverflow() == 0 {
		return ng.finish(), nil // nothing to repair
	}
	if err := ctx.Err(); err != nil {
		return ng.finish(), err
	}
	// First pass: the edit's dirty set seeds the rip order.
	return ng.run(ctx, ng.beginPass(work, cur))
}

// sameRoute reports whether two routes of the same net have identical
// geometry (search effort may differ between passes).
func sameRoute(a, b *router.NetRoute) bool {
	if a.Found != b.Found || a.Length != b.Length || len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			return false
		}
	}
	return true
}
