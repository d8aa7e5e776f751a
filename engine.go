package genroute

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/adjust"
	"repro/internal/congest"
	"repro/internal/detail"
	"repro/internal/journal"
	"repro/internal/plane"
	"repro/internal/router"
)

// Engine is a prepared routing session over one layout. NewEngine pays the
// setup once — validation, the plane obstacle index, the congestion passage
// tables — and every flow then runs as a method over that shared state:
//
//	e, _ := genroute.NewEngine(l, genroute.WithPitch(8))
//	res, _ := e.RouteNegotiated(ctx)     // negotiated congestion
//	tr, _  := e.AssignTracks(0)          // detailed tracks over the result
//	tx := e.Edit()                       // incremental ECO editing
//	tx.RemoveNet("clk2")
//	eco, _ := tx.Commit(ctx)             // reroutes only the dirty nets
//
// Every routing method takes a context.Context: cancellation is cooperative
// (threaded through the search inner loop, the layout worker pool and the
// negotiation pass loop) and a cancelled call returns the consistent
// partial result it had together with the context's error.
//
// The engine owns a private clone of the layout, so later edits through
// Edit never mutate the caller's value. After RouteAll or RouteNegotiated
// the engine retains the routing state — the per-net routes, the live
// congestion map and the accumulated overflow history — which is what
// Edit.Commit repairs incrementally instead of routing from scratch.
//
// # Concurrency
//
// An Engine is safe for concurrent use, under a readers–writer contract
// enforced by an internal sync.RWMutex:
//
//   - Read-side methods — RouteNet, RoutePoints, Validate,
//     CheckConnectivity, AssignTracks, AssignLayers, AdjustPlacement,
//     Routed, Result, Overflow — only observe the session state and
//     may run concurrently with each other. This is the pattern a server
//     relies on: many simultaneous RouteNet calls against one prepared
//     session (per-net routing depends only on the obstacle geometry, so
//     reads never contend on anything but the lock).
//   - Write-side methods — RouteAll, RouteNegotiated and Edit.Commit —
//     replace the session state and take the lock exclusively. A long
//     negotiation therefore blocks concurrent reads on the same session
//     until it completes or is cancelled; bound it with a context deadline
//     if readers must not starve.
//
// The lock is not context-aware: a method waits for the lock before its
// context is consulted. Layout reads the layout pointer under RLock but
// returns an interior pointer — treat the returned value as read-only. An
// installed layout is never written after install: Edit.Commit installs a
// new layout that shares every unchanged cell and net with the old one and
// writes neither, so a layout read before a commit stays valid after it.
type Engine struct {
	// mu enforces the readers–writer contract above. State-replacing flows
	// (RouteAll, RouteNegotiated, Edit.Commit) hold it exclusively;
	// everything else reads under RLock.
	mu sync.RWMutex

	l   *Layout      //grlint:guardedby mu
	cfg config       //grlint:guardedby mu
	ix  *plane.Index //grlint:guardedby mu
	// spans maps each layout cell to the half-open obstacle-id range it
	// contributed to ix; ECO cell moves splice exactly those ids.
	spans    [][2]int          //grlint:guardedby mu
	r        *router.Router    //grlint:guardedby mu
	passages []congest.Passage //grlint:guardedby mu
	netIdx   map[string]int    //grlint:guardedby mu

	// Routed session state (nil until a whole-layout flow has run).
	cur     *router.LayoutResult //grlint:guardedby mu
	m       *congest.Map         //grlint:guardedby mu
	history []int                //grlint:guardedby mu
	// pending is the negotiation in flight: the latest checkpoint of an
	// interrupted RouteNegotiated, which the next one continues. Every
	// other install retires it (see setState); the journal's base carries
	// it. nil when there is none.
	pending *congest.Checkpoint //grlint:guardedby mu

	// jr is the write-ahead ECO journal: written by NewEngine under
	// WithJournalFile, attached by LoadEngineJournal after its replay, nil
	// otherwise.
	jr *journal.Journal //grlint:guardedby mu
	// jrStale is set while jr describes the session as it was before a
	// whole-layout flow whose fold failed; the next commit folds before
	// appending (see journalFoldAfterFlowLocked).
	jrStale bool //grlint:guardedby mu

	// lhash memoizes the layout fingerprint for the journal (0 = not yet
	// computed; ECO commits set the edited layout's).
	lhash uint64 //grlint:guardedby mu
}

// NewEngine validates a private clone of the layout (the paper's three
// placement restrictions plus pin well-formedness) and prepares a routing
// session over it: obstacle index, router, and the congestion passage
// tables at the configured pitch. With WithJournalFile it then writes the
// session's journal. l itself is only read, so concurrent calls may share
// it.
func NewEngine(l *Layout, opts ...Option) (*Engine, error) {
	// Validate fills in bare-polygon bounding boxes: the clone's, not l's.
	e := &Engine{l: l.Clone(), cfg: newConfig(opts)}
	if err := e.l.Validate(); err != nil {
		return nil, err
	}
	var err error
	e.ix, e.spans, err = plane.FromLayoutSpans(e.l)
	if err != nil {
		return nil, err
	}
	e.r = router.New(e.ix, e.cfg.routerOptions(e.ix))
	e.passages, err = congest.Extract(e.ix, e.cfg.congest.Pitch)
	if err != nil {
		return nil, err
	}
	e.reindexNets()
	if err := e.journalCreate(); err != nil {
		return nil, err
	}
	return e, nil
}

// reindexNets rebuilds the name → index table (after construction and after
// every committed edit).
func (e *Engine) reindexNets() {
	e.netIdx = make(map[string]int, len(e.l.Nets))
	for i := range e.l.Nets {
		e.netIdx[e.l.Nets[i].Name] = i
	}
}

// Layout returns the engine's private copy of the layout, including every
// committed edit. Treat it as read-only; mutate through Edit instead. The
// engine never writes it either: Edit.Commit installs a new layout that
// shares every cell and net the edit left unchanged with this one, so a
// layout returned before a commit still describes the session as it was.
// The pointer itself is read under the lock — Edit.Commit swaps it for the
// edited layout, and an unsynchronized read of the pointer word would race
// with that install.
func (e *Engine) Layout() *Layout {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.l
}

// Routed reports whether the session holds a whole-layout routing state
// (set by RouteAll and RouteNegotiated, updated by Edit.Commit).
func (e *Engine) Routed() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur != nil
}

// Result returns the session's current whole-layout routing state, or nil
// before the first RouteAll/RouteNegotiated.
func (e *Engine) Result() *Result {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur
}

// Pitch returns the wire pitch the session's passage capacities were
// extracted at: WithPitch for NewEngine, and the persisted pitch for a
// session recovered by LoadEngineJournal.
func (e *Engine) Pitch() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg.congest.Pitch
}

// Overflow returns the total passage overflow of the current routing state
// (0 before the first whole-layout route).
func (e *Engine) Overflow() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.m == nil {
		return 0
	}
	return e.m.TotalOverflow()
}

// errNotRouted guards the methods that need a routed session.
func errNotRouted(flow string) error {
	return fmt.Errorf("genroute: %s needs a routed session; call RouteAll or RouteNegotiated first", flow)
}

// setState installs a fresh routing state and its congestion bookkeeping.
// The install retires the negotiation in flight, if any: it would continue
// from routes the session no longer holds. (An interrupted RouteNegotiated
// re-arms its own checkpoint after installing; see installNegotiated.)
func (e *Engine) setState(res *router.LayoutResult, m *congest.Map, history []int) {
	e.cur = res
	e.m = m
	e.pending = nil
	if history == nil {
		history = make([]int, len(e.passages))
	}
	e.history = history
}

// emit feeds the progress observer, if any.
func (e *Engine) emit(p Progress) {
	if e.cfg.progress != nil {
		e.cfg.progress(p)
	}
}

// passProgress adapts a congestion pass summary to a Progress event.
func passProgress(phase string, n int, p congest.Pass, total int) Progress {
	return Progress{
		Phase:      phase,
		Pass:       n,
		Overflow:   p.Overflow,
		Overflowed: p.Overflowed,
		NetsRouted: p.Routed,
		NetsTotal:  total,
		Rerouted:   len(p.Rerouted),
		Expanded:   p.Stats.Expanded,
		Elapsed:    p.Elapsed,
	}
}

// RouteAll routes every net independently (concurrently across
// WithWorkers), replacing the session's routing state. On cancellation the
// partial result — every net either fully routed or still marked not-Found
// — is installed and returned together with the context's error. A session
// with an ECO journal folds it into a fresh base after the install; a
// failed fold is returned too (joined with any routing error, and matching
// ErrJournalFold), with the new routes installed.
func (e *Engine) RouteAll(ctx context.Context) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, err := e.r.RouteLayoutCtx(ctx, e.l, e.cfg.workers)
	if res == nil {
		return nil, err
	}
	m := congest.BuildMap(e.passages, netSegments(res))
	e.setState(res, m, nil)
	err = e.journalFoldAfterFlowLocked(err)
	e.emit(Progress{
		Phase:      "route",
		Pass:       1,
		Overflow:   m.TotalOverflow(),
		Overflowed: len(m.Overflowed()),
		NetsRouted: len(res.Nets) - len(res.Failed),
		NetsTotal:  len(e.l.Nets),
		Expanded:   res.Stats.Expanded,
		Elapsed:    res.Elapsed,
	})
	return res, err
}

// RouteNegotiated iterates the negotiated-congestion loop over the prepared
// session (see congest.Negotiate for the algorithm), replacing the
// session's routing state with the final pass. The progress observer
// receives one "negotiate" event per pass. On cancellation or deadline
// expiry the best pass seen so far — minimum overflow, then most nets
// routed — is installed and the passes completed are returned together
// with the context's error. With WithCheckpointEvery the run checkpoints
// into the session's journal, and an interrupted run leaves its last
// checkpoint as the negotiation in flight: the next RouteNegotiated — on
// this session, or on the one LoadEngineJournal recovers after a crash —
// continues it from the exact rip it stopped at (congest.NegotiateResume),
// under the original pass budget, and installs the routes the
// uninterrupted run would have. The result then covers the continued
// passes only, and its PassesBefore counts the ones recorded before. Like
// RouteAll, it folds an existing ECO journal after the install.
func (e *Engine) RouteNegotiated(ctx context.Context) (*NegotiatedResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res *congest.NegotiateResult
	var err error
	if e.pending != nil {
		res, err = congest.NegotiateResume(ctx, e.l, e.ix, e.passages, e.negotiateConfig(), e.pending)
	} else {
		res, err = congest.Negotiate(ctx, e.l, e.ix, e.passages, e.negotiateConfig())
	}
	return res, e.installNegotiated(res, err)
}

// ErrUnknownNet marks a request for a net the session's layout does not
// have.
var ErrUnknownNet = errors.New("genroute: no net")

// RouteNet routes one net of the layout by name, independently of the
// session's whole-layout state (which it does not modify). An unknown name
// returns an error matching ErrUnknownNet.
func (e *Engine) RouteNet(ctx context.Context, name string) (NetRoute, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ni, ok := e.netIdx[name]
	if !ok {
		return NetRoute{}, fmt.Errorf("%w %q", ErrUnknownNet, name)
	}
	return e.r.RouteNetCtx(ctx, &e.l.Nets[ni])
}

// RoutePoints routes between two arbitrary points, avoiding all cells.
func (e *Engine) RoutePoints(ctx context.Context, a, b Point) (Route, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.r.RoutePointsCtx(ctx, a, b)
}

// Validate checks a routed net tree against the layout geometry.
func (e *Engine) Validate(nr *NetRoute) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.r.Validate(nr)
}

// CheckConnectivity verifies that the session's current routing state
// physically connects every net.
func (e *Engine) CheckConnectivity() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.cur == nil {
		return errNotRouted("CheckConnectivity")
	}
	return CheckConnectivity(e.l, e.cur)
}

// AssignTracks runs the detailed-routing stage — dynamic channel formation
// and left-edge track assignment — over the session's current routing
// state. window is the interference proximity (0 for the default).
func (e *Engine) AssignTracks(window int64) (*TrackResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.cur == nil {
		return nil, errNotRouted("AssignTracks")
	}
	return detail.Assign(e.cur, detail.Options{Window: window}), nil
}

// AssignLayers applies the two-layer HV discipline with via counting over
// the session's current routing state.
func (e *Engine) AssignLayers() (*LayerResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.cur == nil {
		return nil, errNotRouted("AssignLayers")
	}
	return detail.AssignLayers(e.cur), nil
}

// AdjustPlacement runs the spacing feedback loop on a clone of the
// session's layout: route, measure passage congestion, widen overflowed
// passages by shifting cells apart, repeat until the routing fits or the
// WithAdjustIters budget runs out. The session's own layout and routing
// state are not modified (the adjusted placement changes cell positions,
// which a prepared session cannot absorb in place; build a new Engine over
// result.Layout to continue with it). On cancellation the iterations
// completed so far are returned with the context's error.
func (e *Engine) AdjustPlacement(ctx context.Context) (*AdjustResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return adjust.RunCtx(ctx, e.l, adjust.Options{
		Pitch:    e.cfg.congest.Pitch,
		MaxIters: e.cfg.adjustIters,
		Workers:  e.cfg.workers,
	})
}

// netSegments flattens a layout result into one segment list per net.
func netSegments(lr *router.LayoutResult) [][]Seg {
	out := make([][]Seg, len(lr.Nets))
	for i := range lr.Nets {
		out[i] = lr.Nets[i].Segments
	}
	return out
}
