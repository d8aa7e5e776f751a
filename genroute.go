// Package genroute is a global router for general-cell (building-block /
// macro-cell) integrated-circuit layouts, reproducing Gary W. Clow's
// "A Global Routing Algorithm for General Cells" (DAC 1984).
//
// The router is gridless: no routing grid is assumed for either module
// placement or pin locations. Routes are found by A* search with
// ray-tracing successor generation — paths extend as far toward the goal
// as feasible and hug cell boundaries when obstacles intervene — so the
// search expands dramatically fewer nodes than Lee–Moore grid expansion
// while still returning minimal-length routes. Multi-terminal nets are
// approximated Steiner trees (tree segments are attachment points);
// multi-pin terminals group electrically equivalent pins. Every net is
// routed independently against the cells only, which eliminates net
// ordering and makes whole-layout routing embarrassingly parallel.
//
// # Quick start
//
//	l := &genroute.Layout{ ... cells, nets ... }
//	e, err := genroute.NewEngine(l)
//	res, err := e.RouteAll(ctx)
//
// An Engine is a prepared session: validation, the obstacle index and the
// congestion tables are built once, every flow (RouteAll, RouteNegotiated,
// AdjustPlacement, track/layer assignment) runs as a method sharing that
// state under a context.Context, and Edit opens an incremental ECO
// transaction that reroutes only what a layout change dirtied. See the
// examples directory for complete programs and DESIGN.md for the system
// architecture and the ECO semantics.
package genroute

import (
	"fmt"
	"io"
	"time"

	"repro/internal/adjust"
	"repro/internal/congest"
	"repro/internal/detail"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/ray"
	"repro/internal/router"
	"repro/internal/search"
	"repro/internal/steiner"
)

// Re-exported model types. A Layout holds rectangular Cells and the Nets to
// connect; a Net has Terminals (connection targets); a Terminal has one or
// more electrically equivalent Pins.
type (
	// Layout is a complete routing problem.
	Layout = layout.Layout
	// Cell is a placed rectangular block.
	Cell = layout.Cell
	// Pin is a connection point on a cell boundary (or a pad).
	Pin = layout.Pin
	// Terminal groups the equivalent pins of one connection target.
	Terminal = layout.Terminal
	// Net is a set of terminals to be connected.
	Net = layout.Net
	// Point is an integer location on the routing plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Seg is an axis-parallel wire segment.
	Seg = geom.Seg
	// Route is a single connection result.
	Route = router.Route
	// NetRoute is a routed net tree.
	NetRoute = router.NetRoute
	// Result aggregates the routes of a whole layout.
	Result = router.LayoutResult
	// GenConfig parameterizes the random layout generator.
	GenConfig = gen.Config
	// TrackResult reports detailed-routing track assignment.
	TrackResult = detail.Result
)

// NoCell marks a pad pin that belongs to the chip boundary.
const NoCell = layout.NoCell

// Pt constructs a Point.
func Pt(x, y int64) Point { return geom.Pt(x, y) }

// R constructs a Rect from any two opposite corners.
func R(x0, y0, x1, y1 int64) Rect { return geom.R(x0, y0, x1, y1) }

// Default congestion parameters applied by NewEngine when the matching
// option is not given; they mirror the grouter CLI defaults.
const (
	// DefaultPitch is the wire pitch used for passage capacity.
	DefaultPitch = 4
	// DefaultPenaltyWeight is the detour accepted per congested crossing.
	DefaultPenaltyWeight = 100
)

// config collects the Engine's option set: base routing options, the
// congestion/negotiation parameters, the placement-adjustment budget, the
// progress observer, the journal file and the checkpoint cadence.
type config struct {
	opts        router.Options
	workers     int
	cornerRule  bool
	congest     congest.Config
	adjustIters int
	progress    ProgressFunc
	checkpoint  bool
	ckptEvery   int
	jrnlPath    string
	jrnlRecords int
	jrnlBytes   int64
}

// newConfig applies the options over the engine defaults.
func newConfig(opts []Option) config {
	cfg := config{
		congest: congest.Config{
			Pitch:       DefaultPitch,
			Weight:      DefaultPenaltyWeight,
			MaxPasses:   congest.DefaultMaxPasses,
			HistoryGain: 1,
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// routerOptions returns the base router options bound to ix. The corner
// rule probes cell boundaries, so its cost must read the index the routes
// run over: the session's own, or the edited one an ECO commit installs.
func (c *config) routerOptions(ix *plane.Index) router.Options {
	opts := c.opts
	if c.cornerRule {
		opts.Cost = router.CornerCost{Ix: ix}
	}
	return opts
}

// Option customizes an Engine. The one set covers every flow: base
// routing, negotiated congestion, ECO repair and placement adjustment.
type Option func(*config)

// WithCornerRule enables the paper's inverted-corner ε rule: among
// equal-length routes the router prefers bends that hug cell boundaries
// (Figure 2).
func WithCornerRule() Option {
	return func(c *config) { c.cornerRule = true }
}

// WithAllDirs switches the successor generator to cast rays in all four
// directions from every node (a denser search graph; used by the
// ablations).
func WithAllDirs() Option {
	return func(c *config) { c.opts.Mode = ray.AllDirs }
}

// WithWorkers sets the number of concurrent net-routing workers for
// RouteAll and the first negotiation pass; n <= 0 uses GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithMaxExpansions bounds search effort per connection.
func WithMaxExpansions(n int) Option {
	return func(c *config) { c.opts.MaxExpansions = n }
}

// WithPitch sets the wire pitch that derives passage capacity for the
// congestion, ECO and adjustment flows (default DefaultPitch).
func WithPitch(pitch int64) Option {
	return func(c *config) { c.congest.Pitch = pitch }
}

// WithPenaltyWeight sets the base detour, in length units, a route accepts
// to avoid one congested crossing (default DefaultPenaltyWeight).
func WithPenaltyWeight(w int64) Option {
	return func(c *config) { c.congest.Weight = w }
}

// WithMaxPasses bounds the negotiation loop, counting the initial route as
// pass 1 (default congest.DefaultMaxPasses).
func WithMaxPasses(n int) Option {
	return func(c *config) { c.congest.MaxPasses = n }
}

// WithHistory configures the PathFinder history term: gain scales the
// accumulated per-passage overflow history in the penalty (0 disables
// history, reproducing the paper's plain present-cost penalty; the default
// is 1), and weight, when positive, decouples the history step from the
// present weight (see congest.Config.HistoryWeight).
func WithHistory(gain int, weight int64) Option {
	return func(c *config) {
		c.congest.HistoryGain = gain
		c.congest.HistoryWeight = weight
	}
}

// WithWeightStep enables the escalating present-cost schedule: the price of
// an over-capacity crossing rises by step every reroute pass (see
// congest.Config.WeightStep).
func WithWeightStep(step int64) Option {
	return func(c *config) { c.congest.WeightStep = step }
}

// WithCheckpointEvery makes RouteNegotiated checkpoint its progress into
// the session's journal at every pass boundary and, when every > 0, after
// every `every` rip-ups within a pass. Each checkpoint folds the journal
// (temp file, fsync, rename) into a base that carries the negotiation in
// flight, so a crash at any instant leaves the previous or the new
// checkpoint, never a torn one; a fold that fails aborts the run. After an
// interruption, a drain or a crash, RouteNegotiated on the same session or
// on the one LoadEngineJournal recovers continues the negotiation, with
// routes byte-identical to the uninterrupted run. The journal is the
// checkpoint's file, so NewEngine refuses this option without
// WithJournalFile: a caller asking for crash safety must not silently go
// without it.
func WithCheckpointEvery(every int) Option {
	return func(c *config) {
		c.checkpoint = true
		c.ckptEvery = every
	}
}

// WithAdjustIters bounds the placement-adjustment feedback loop (default
// 10 iterations).
func WithAdjustIters(n int) Option {
	return func(c *config) { c.adjustIters = n }
}

// WithProgress installs an observer that receives a Progress event after
// every completed pass of the negotiation, ECO repair and whole-layout
// routing flows. The observer runs inline on the routing goroutine — keep
// it cheap.
func WithProgress(fn ProgressFunc) Option {
	return func(c *config) { c.progress = fn }
}

// WithTrace installs per-node search observers: onExpand receives every
// expanded search point with its accumulated cost, onGenerate every newly
// generated successor (either may be nil). This is the hook behind the
// Figure 1 expansion traces; the callbacks run inline on the search hot
// path.
func WithTrace(onExpand, onGenerate func(Point, int64)) Option {
	return func(c *config) {
		if onExpand != nil {
			c.opts.OnExpand = func(p geom.Point, g search.Cost) { onExpand(p, g) }
		}
		if onGenerate != nil {
			c.opts.OnGenerate = func(p geom.Point, g search.Cost) { onGenerate(p, g) }
		}
	}
}

// Progress is one observation of engine activity, delivered to the
// WithProgress observer after each completed pass.
type Progress struct {
	// Phase names the flow: "route" (RouteAll), "negotiate"
	// (RouteNegotiated) or "eco" (Edit.Commit repair).
	Phase string
	// Pass is the 1-based pass number within the phase.
	Pass int
	// Overflow is the total passage overflow after the pass; Overflowed
	// counts the passages over capacity.
	Overflow, Overflowed int
	// NetsRouted counts fully routed nets after the pass, out of NetsTotal.
	NetsRouted, NetsTotal int
	// Rerouted counts the nets ripped up and rerouted in the pass.
	Rerouted int
	// Expanded is the whole-layout search effort after the pass.
	Expanded int
	// Elapsed is the wall-clock time of the pass.
	Elapsed time.Duration
}

// ProgressFunc observes engine progress (see WithProgress).
type ProgressFunc func(Progress)

// CheckConnectivity verifies that a layout result physically connects every
// net: all terminals of each net must be joined through wire segments,
// where any pin of a multi-pin terminal counts as a connection point.
func CheckConnectivity(l *Layout, res *Result) error {
	if len(res.Nets) != len(l.Nets) {
		return fmt.Errorf("genroute: result has %d nets, layout %d", len(res.Nets), len(l.Nets))
	}
	for i := range l.Nets {
		nr := &res.Nets[i]
		if !nr.Found {
			continue // failures are reported, not connectivity errors
		}
		if err := netConnected(&l.Nets[i], nr.Segments); err != nil {
			return fmt.Errorf("net %q: %w", l.Nets[i].Name, err)
		}
	}
	return nil
}

// netConnected checks one net: union terminals and segments through
// shared points; every terminal must land in one component.
func netConnected(n *Net, segs []Seg) error {
	nTerm := len(n.Terminals)
	nodes := nTerm + len(segs)
	parent := make([]int, nodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	// Segment-segment adjacency.
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			if segs[i].Intersects(segs[j]) {
				union(nTerm+i, nTerm+j)
			}
		}
	}
	// Terminal-segment and terminal-terminal adjacency via pins.
	for ti := range n.Terminals {
		for _, p := range n.Terminals[ti].Pins {
			for si := range segs {
				if segs[si].Contains(p.Pos) {
					union(ti, nTerm+si)
				}
			}
			for tj := ti + 1; tj < nTerm; tj++ {
				for _, q := range n.Terminals[tj].Pins {
					if p.Pos == q.Pos {
						union(ti, tj)
					}
				}
			}
		}
	}
	for ti := 1; ti < nTerm; ti++ {
		if find(ti) != find(0) {
			return fmt.Errorf("terminal %q not connected", n.Terminals[ti].Name)
		}
	}
	return nil
}

// NegotiatedResult reports an N-pass negotiated-congestion run: per-pass
// overflow/length/effort summaries, the routing state after every pass,
// the run's live congestion map (which counts the last pass), and whether
// the loop converged to zero overflow.
type NegotiatedResult = congest.NegotiateResult

// LayerResult reports two-layer HV assignment with via counts.
type LayerResult = detail.LayerAssignment

// AdjustResult reports the placement-adjustment feedback loop.
type AdjustResult = adjust.Result

// Random generates a random validated layout (see GenConfig).
func Random(cfg GenConfig) (*Layout, error) { return gen.RandomLayout(cfg) }

// PolyChip generates a layout mixing rectangular and orthogonal-polygon
// (L/U/T) cells — the paper's polygon extension workload.
func PolyChip(seed int64, cells, nets int) (*Layout, error) {
	return gen.PolyChip(seed, cells, nets)
}

// GridOfMacros generates a rows x cols macro array with bus and control
// nets.
func GridOfMacros(rows, cols int, cellW, cellH, gap int64, seed int64) (*Layout, error) {
	return gen.GridOfMacros(rows, cols, cellW, cellH, gap, seed)
}

// MacroGrid generates the macro-scale datapath workload: a rows x cols
// macro array with horizontal and vertical neighbor buses, column control
// nets, and cross-chip nets (32x32 gives 1024 cells and over 2000 nets).
func MacroGrid(rows, cols int, cellW, cellH, gap int64, seed int64) (*Layout, error) {
	return gen.MacroGrid(rows, cols, cellW, cellH, gap, seed)
}

// PadRing generates a pad ring around a random core.
func PadRing(pads, coreCells int, seed int64) (*Layout, error) {
	return gen.PadRing(pads, coreCells, seed)
}

// ReadLayout decodes and validates a JSON layout.
func ReadLayout(r io.Reader) (*Layout, error) { return layout.ReadJSON(r) }

// WriteLayout encodes a layout as JSON.
func WriteLayout(w io.Writer, l *Layout) error { return l.WriteJSON(w) }

// TreeLowerBound returns a lower bound on the Steiner tree length for a set
// of points (max of the half-perimeter and Hwang bounds) — useful for
// judging route quality.
func TreeLowerBound(pts []Point) int64 { return steiner.RSMTLowerBound(pts) }
