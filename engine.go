package genroute

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

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
// An Engine is safe for concurrent use. The session it holds — layout,
// obstacle index, router, passages and routing state — is one immutable
// value published through an atomic pointer:
//
//   - Read-side methods — Layout, Routed, Result, Overflow, RouteNet,
//     RoutePoints, Validate, CheckConnectivity, AssignTracks, AssignLayers,
//     AdjustPlacement, JournalStats — load what is published and work on
//     it. They take no lock and no token, so they never wait, not even
//     for a negotiation.
//   - Write-side methods — RouteAll, RouteNegotiated and Edit.Commit — hold
//     the engine's one writer token while they run, so they run one at a
//     time, and each installs a new session with one store. A reader sees
//     the session before or after an install, never a mix. A writer that
//     finds the token taken waits for it under its context; if the context
//     ends first, it returns a nil result and the context's error, having
//     installed and appended nothing.
//
// CloseJournal retires the engine: it takes the token for good, so every
// later writer fails at once with ErrRetired, while reads keep working.
//
// Values a read returns — the layout, a Result — belong to the session
// they were read from, which nothing writes: treat them as read-only.
type Engine struct {
	// cfg is fixed before NewEngine or LoadEngineJournal returns.
	cfg config
	// st is the installed session (see state).
	st atomic.Pointer[state]
	// w holds the writer token (see writer): empty while a writer runs,
	// and closed once CloseJournal has retired the engine.
	w chan *writer
	// jstats is the journal's Stats as the token holder last published
	// them, after an append, a fold or the close; nil without a journal.
	jstats atomic.Pointer[journal.Stats]
}

// writer is the state only the token holder touches. Holding the *writer
// is holding the right to write, so a helper that takes one runs under the
// token by construction.
type writer struct {
	// pending is the negotiation in flight: the latest checkpoint of an
	// interrupted RouteNegotiated, which the next one continues, or nil.
	// The journal's base carries it. Every other install retires it: it
	// would continue from routes the session no longer holds.
	pending *congest.Checkpoint

	// jr is the write-ahead ECO journal: written by NewEngine under
	// WithJournalFile, attached by LoadEngineJournal after its replay, nil
	// otherwise.
	jr *journal.Journal
	// jrStale is set while jr describes the session as it was before a
	// whole-layout flow whose fold failed; the next commit folds before
	// appending (see journalFoldAfterFlow).
	jrStale bool

	// lhash memoizes the layout fingerprint for the journal (0 = not yet
	// computed; ECO commits set the edited layout's).
	lhash uint64
}

// ErrRetired marks a write on an engine CloseJournal has retired. The
// session's journal may already belong to a successor engine, so nothing
// more may be installed or appended; reads keep working.
var ErrRetired = errors.New("genroute: engine retired")

// acquire takes the writer token. A free token, or a retired engine
// (ErrRetired), answers at once whatever ctx says, so a flow called with a
// done context still returns its partial result; only a wait for another
// writer ends with ctx.
func (e *Engine) acquire(ctx context.Context) (*writer, error) {
	var (
		w  *writer
		ok bool
	)
	select {
	case w, ok = <-e.w:
	default:
		select {
		case w, ok = <-e.w:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if !ok {
		return nil, ErrRetired
	}
	return w, nil
}

// state is one installed session: a validated layout, what was prepared
// from it, and — once a whole-layout flow has run — its routing state.
// Nothing writes a state, or anything it points to, after it is stored:
// Edit.Commit builds its layout on top of the installed one without
// writing it, repairs a map of its own (from Clone, Renumber or BuildMap)
// and hands RepairCtx a fresh route slice; installNegotiated installs a
// clone of the run's live map, or a map built over its best pass, and the
// run's history, which the finished run no longer writes; a router is
// shared by concurrent readers anyway.
// So a reader may use a state it loaded for as long as it likes, while
// writers install its successors.
type state struct {
	l  *Layout
	ix *plane.Index
	// spans maps each layout cell to the half-open obstacle-id range it
	// contributed to ix; a cell move replaces exactly those obstacles in
	// place, so the spans never change after FromLayoutSpans.
	spans    [][2]int
	r        *router.Router
	passages []congest.Passage
	netIdx   map[string]int

	// Routed session state (nil until a whole-layout flow has run).
	cur     *router.LayoutResult
	m       *congest.Map
	history []int
}

// prepared builds the unrouted state over a validated layout, its obstacle
// index and passages: the router and the net-name index.
func (e *Engine) prepared(l *Layout, ix *plane.Index, spans [][2]int, passages []congest.Passage) *state {
	netIdx := make(map[string]int, len(l.Nets))
	for i := range l.Nets {
		netIdx[l.Nets[i].Name] = i
	}
	r := router.New(ix, e.cfg.routerOptions(ix))
	return &state{l: l, ix: ix, spans: spans, r: r, passages: passages, netIdx: netIdx}
}

// routed returns a copy of s that holds a routing state and its congestion
// bookkeeping; a nil history starts at zero.
func (s state) routed(res *router.LayoutResult, m *congest.Map, history []int) *state {
	if history == nil {
		history = make([]int, len(s.passages))
	}
	s.cur, s.m, s.history = res, m, history
	return &s
}

// NewEngine validates a private clone of the layout (the paper's three
// placement restrictions plus pin well-formedness) and prepares a routing
// session over it: obstacle index, router, and the congestion passage
// tables at the configured pitch. With WithJournalFile it then writes the
// session's journal. l itself is only read, so concurrent calls may share
// it.
func NewEngine(l *Layout, opts ...Option) (*Engine, error) {
	// Validate fills in bare-polygon bounding boxes: the clone's, not l's.
	lc := l.Clone()
	if err := lc.Validate(); err != nil {
		return nil, err
	}
	ix, spans, err := plane.FromLayoutSpans(lc)
	if err != nil {
		return nil, err
	}
	// The constructor holds the token until the engine is ready.
	e, w := &Engine{cfg: newConfig(opts), w: make(chan *writer, 1)}, &writer{}
	passages, err := congest.Extract(ix, e.cfg.congest.Pitch)
	if err != nil {
		return nil, err
	}
	e.st.Store(e.prepared(lc, ix, spans, passages))
	if err := e.journalCreate(w); err != nil {
		return nil, err
	}
	e.w <- w
	return e, nil
}

// Layout returns the engine's private copy of the layout, including every
// committed edit. Treat it as read-only; mutate through Edit instead. The
// engine never writes it either: Edit.Commit installs a new layout that
// shares every cell and net the edit left unchanged with this one, so a
// layout returned before a commit still describes the session as it was.
func (e *Engine) Layout() *Layout { return e.st.Load().l }

// Routed reports whether the session holds a whole-layout routing state
// (set by RouteAll and RouteNegotiated, updated by Edit.Commit).
func (e *Engine) Routed() bool { return e.st.Load().cur != nil }

// Result returns the session's current whole-layout routing state, or nil
// before the first RouteAll/RouteNegotiated.
func (e *Engine) Result() *Result { return e.st.Load().cur }

// NegotiationInFlight reports whether the session holds a negotiation in
// flight: the last checkpoint of an interrupted RouteNegotiated, which the
// next RouteNegotiated continues. It waits for the writer token, so it
// answers between writes; a retired engine reports false.
func (e *Engine) NegotiationInFlight() bool {
	w, err := e.acquire(context.Background())
	if err != nil {
		return false
	}
	defer func() { e.w <- w }()
	return w.pending != nil
}

// Pitch returns the wire pitch the session's passage capacities were
// extracted at: WithPitch for NewEngine, and the persisted pitch for a
// session recovered by LoadEngineJournal.
func (e *Engine) Pitch() int64 { return e.cfg.congest.Pitch }

// Overflow returns the total passage overflow of the current routing state
// (0 before the first whole-layout route).
func (e *Engine) Overflow() int {
	s := e.st.Load()
	if s.m == nil {
		return 0
	}
	return s.m.TotalOverflow()
}

// errNotRouted guards the methods that need a routed session.
func errNotRouted(flow string) error {
	return fmt.Errorf("genroute: %s needs a routed session; call RouteAll or RouteNegotiated first", flow)
}

// emit feeds the progress observer, if any.
func (e *Engine) emit(p Progress) {
	if e.cfg.progress != nil {
		e.cfg.progress(p)
	}
}

// ripupConfig assembles the congest.Config of a rip-up run over the
// obstacle index ix: the congestion parameters, workers and base router
// options (corner rule, mode, budget, trace hooks), and, with a progress
// observer, an adapter that reports each pass as an event of phase over a
// layout of nets nets. RouteNegotiated adds the checkpoint hook.
func (e *Engine) ripupConfig(phase string, ix *plane.Index, nets int) congest.Config {
	ccfg := e.cfg.congest
	ccfg.Workers = e.cfg.workers
	ccfg.BaseOptions = e.cfg.routerOptions(ix)
	if e.cfg.progress != nil {
		ccfg.OnPass = func(n int, p congest.Pass) {
			e.emit(Progress{
				Phase:      phase,
				Pass:       n,
				Overflow:   p.Overflow,
				Overflowed: p.Overflowed,
				NetsRouted: p.Routed,
				NetsTotal:  nets,
				Rerouted:   len(p.Rerouted),
				Expanded:   p.Stats.Expanded,
				Elapsed:    p.Elapsed,
			})
		}
	}
	return ccfg
}

// RouteAll routes every net independently (concurrently across
// WithWorkers), replacing the session's routing state. On cancellation the
// partial result — every net either fully routed or still marked not-Found
// — is installed and returned together with the context's error. A session
// with an ECO journal folds it into a fresh base after the install; a
// failed fold is returned too (joined with any routing error, and matching
// ErrJournalFold), with the new routes installed.
func (e *Engine) RouteAll(ctx context.Context) (*Result, error) {
	w, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { e.w <- w }()
	s := e.st.Load()
	res, err := s.r.RouteLayoutCtx(ctx, s.l, e.cfg.workers)
	if res == nil {
		return nil, err
	}
	m := congest.BuildMap(s.passages, res.NetSegments())
	e.st.Store(s.routed(res, m, nil))
	w.pending = nil
	err = e.journalFoldAfterFlow(w, err)
	e.emit(Progress{
		Phase:      "route",
		Pass:       1,
		Overflow:   m.TotalOverflow(),
		Overflowed: len(m.Overflowed()),
		NetsRouted: len(res.Nets) - len(res.Failed),
		NetsTotal:  len(s.l.Nets),
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
	w, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { e.w <- w }()
	s := e.st.Load()
	ccfg := e.ripupConfig("negotiate", s.ix, len(s.l.Nets))
	if e.cfg.checkpoint {
		ccfg.CheckpointEvery = e.cfg.ckptEvery
		ccfg.Checkpoint = func(cp *congest.Checkpoint) error { return e.checkpoint(w, cp) }
	}
	var res *congest.NegotiateResult
	if w.pending != nil {
		res, err = congest.NegotiateResume(ctx, s.l, s.ix, s.passages, ccfg, w.pending)
	} else {
		res, err = congest.Negotiate(ctx, s.l, s.ix, s.passages, ccfg)
	}
	return res, e.installNegotiated(w, s, res, err)
}

// ErrUnknownNet marks a request for a net the session's layout does not
// have.
var ErrUnknownNet = errors.New("genroute: no net")

// RouteNet routes one net of the layout by name, independently of the
// session's whole-layout state (which it does not modify). An unknown name
// returns an error matching ErrUnknownNet.
func (e *Engine) RouteNet(ctx context.Context, name string) (NetRoute, error) {
	s := e.st.Load()
	ni, ok := s.netIdx[name]
	if !ok {
		return NetRoute{}, fmt.Errorf("%w %q", ErrUnknownNet, name)
	}
	return s.r.RouteNetCtx(ctx, &s.l.Nets[ni])
}

// RoutePoints routes between two arbitrary points, avoiding all cells.
func (e *Engine) RoutePoints(ctx context.Context, a, b Point) (Route, error) {
	return e.st.Load().r.RoutePointsCtx(ctx, a, b)
}

// Validate checks a routed net tree against the layout geometry.
func (e *Engine) Validate(nr *NetRoute) error {
	return e.st.Load().r.Validate(nr)
}

// CheckConnectivity verifies that the session's current routing state
// physically connects every net.
func (e *Engine) CheckConnectivity() error {
	s := e.st.Load()
	if s.cur == nil {
		return errNotRouted("CheckConnectivity")
	}
	return CheckConnectivity(s.l, s.cur)
}

// AssignTracks runs the detailed-routing stage — dynamic channel formation
// and left-edge track assignment — over the session's current routing
// state. window is the interference proximity (0 for the default).
func (e *Engine) AssignTracks(window int64) (*TrackResult, error) {
	cur := e.st.Load().cur
	if cur == nil {
		return nil, errNotRouted("AssignTracks")
	}
	return detail.Assign(cur, detail.Options{Window: window}), nil
}

// AssignLayers applies the two-layer HV discipline with via counting over
// the session's current routing state.
func (e *Engine) AssignLayers() (*LayerResult, error) {
	cur := e.st.Load().cur
	if cur == nil {
		return nil, errNotRouted("AssignLayers")
	}
	return detail.AssignLayers(cur), nil
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
	return adjust.RunCtx(ctx, e.st.Load().l, adjust.Options{
		Pitch:    e.cfg.congest.Pitch,
		MaxIters: e.cfg.adjustIters,
		Workers:  e.cfg.workers,
	})
}
