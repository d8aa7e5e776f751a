package genroute

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/congest"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/snapshot"
)

// Edit is a staged ECO (engineering change order) transaction over an
// Engine. Stage any number of AddNet/RemoveNet/MoveCell operations, then
// Commit: the engine applies the edits to its layout, marks the dirty nets,
// edits the obstacle index, and reroutes only the dirty set plus the
// nets the edit pushed into overflow — the unedited, unaffected nets keep
// their routes byte-identical (see Commit for the exact guarantee).
//
// Staging performs name-level validation immediately (unknown nets/cells,
// duplicate additions) against the layout as it is then; Commit re-checks
// the removals against the layout it commits over and validates the edited
// layout's geometry, as far as the edit touched it. A transaction that
// fails to Commit leaves the engine untouched. An Edit is single-use: after
// a successful Commit, open a new one for further changes.
type Edit struct {
	e         *Engine
	ops       []editOp
	committed bool
}

type editKind uint8

const (
	opAddNet editKind = iota
	opRemoveNet
	opMoveCell
)

type editOp struct {
	kind editKind
	net  Net    // opAddNet (deep copy, staged)
	name string // opRemoveNet net name / opMoveCell cell name
	d    Point  // opMoveCell translation
}

// Edit opens a new ECO transaction over the session.
func (e *Engine) Edit() *Edit { return &Edit{e: e} }

// netExists reports whether the staged view of the layout — the engine's
// nets minus staged removals plus staged additions — contains name.
func (tx *Edit) netExists(name string) bool {
	_, present := tx.e.st.Load().netIdx[name]
	for _, op := range tx.ops {
		switch {
		case op.kind == opAddNet && op.net.Name == name:
			present = true
		case op.kind == opRemoveNet && op.name == name:
			present = false
		}
	}
	return present
}

// AddNet stages a new net. The net is deep-copied; its pins are validated
// geometrically at Commit. The name must not collide with the staged view
// of the layout (re-adding a net staged for removal is fine and is how a
// net's pins are changed in place).
func (tx *Edit) AddNet(n Net) error {
	if tx.committed {
		return fmt.Errorf("genroute: Edit already committed")
	}
	if n.Name == "" {
		return fmt.Errorf("genroute: AddNet: net has no name")
	}
	if tx.netExists(n.Name) {
		return fmt.Errorf("genroute: AddNet: net %q already exists", n.Name)
	}
	tx.ops = append(tx.ops, editOp{kind: opAddNet, net: cloneNet(&n)})
	return nil
}

// RemoveNet stages the removal of a net by name, unrouting it on Commit.
func (tx *Edit) RemoveNet(name string) error {
	if tx.committed {
		return fmt.Errorf("genroute: Edit already committed")
	}
	if !tx.netExists(name) {
		return fmt.Errorf("genroute: RemoveNet: no net %q", name)
	}
	// Removing a net staged for addition just drops the staged op.
	for i, op := range tx.ops {
		if op.kind == opAddNet && op.net.Name == name {
			tx.ops = append(tx.ops[:i], tx.ops[i+1:]...)
			return nil
		}
	}
	tx.ops = append(tx.ops, editOp{kind: opRemoveNet, name: name})
	return nil
}

// MoveCell stages a rigid translation of a cell by (dx, dy). The cell's
// pins move with it; every net with a pin on the cell becomes dirty, as
// does any net whose existing route the moved cell now blocks. The
// translated placement must still satisfy the paper's separation
// restrictions (checked at Commit). Multiple moves of one cell accumulate.
func (tx *Edit) MoveCell(name string, dx, dy int64) error {
	if tx.committed {
		return fmt.Errorf("genroute: Edit already committed")
	}
	cells := tx.e.st.Load().l.Cells
	for i := range cells {
		if cells[i].Name == name {
			tx.ops = append(tx.ops, editOp{kind: opMoveCell, name: name, d: Pt(dx, dy)})
			return nil
		}
	}
	return fmt.Errorf("genroute: MoveCell: no cell %q", name)
}

// Len reports the number of staged operations.
func (tx *Edit) Len() int { return len(tx.ops) }

// ECOResult reports a committed ECO transaction.
type ECOResult struct {
	// Dirty lists, by name in rip-up order, the nets the edit itself
	// forced to reroute: added nets, nets with pins on moved cells, kept
	// nets whose routes a moved cell blocked, and (after a geometry
	// change) previously unrouted nets retried against the new placement.
	// Nets dragged in later by overflow negotiation appear in the repair
	// passes' Rerouted lists instead.
	Dirty []string
	// Repair records the incremental negotiation: one entry per repair
	// pass (no initial full-route pass, unlike RouteNegotiated). Empty
	// when the edit dirtied nothing and no overflow existed.
	Repair *NegotiatedResult
	// Result is the session's routing state after the commit.
	Result *Result
	// Converged reports zero passage overflow after the repair.
	Converged bool
	// Elapsed is the total commit wall time, including validation and
	// index/table maintenance.
	Elapsed time.Duration
}

// Commit applies the staged edits and incrementally repairs the routing.
//
// The engine must hold a routed session (RouteAll or RouteNegotiated).
// Every staged removal must still name a net of the session, and the
// edited layout must pass Validate; on either error the engine is left
// exactly as it was. The check runs only over what the edit touched (moved
// cells, the cell pairs and pins they could collide with, added nets) and
// returns exactly what Validate of the whole edited layout would. It rests
// on the invariant that every layout an Engine installs passed Validate:
// NewEngine validates; LoadEngineJournal restores over a layout that
// fingerprints to a validated one, or decodes and validates an embedded
// one; Commit installs only what the footprint check accepted.
//
// The repair then reroutes the dirty nets — in ascending net order, each
// against the live congestion map — and extends, worklist-style, to every
// net in a passage the edit or the reroutes pushed over capacity, draining
// overflow with the same escalating rip-up passes as RouteNegotiated.
//
// Equivalence guarantee: a committed ECO leaves every net's route exactly
// as a from-scratch route of the edited layout would when the net is
// untouched — not dirty and not visited by overflow negotiation — because
// per-net routing depends only on the obstacle geometry, which is why the
// paper's independent-net model admits incremental re-entry at all. Dirty
// and overflow-visited nets are rerouted against the live map in the
// documented rip-up order, so their routes match a from-scratch negotiation
// only modulo that order and the session's accumulated history (a
// from-scratch run prices its first pass penalty-free; the repair prices
// dirty nets against live usage immediately). After a MoveCell the
// obstacle geometry itself changes, so untouched nets keep their previous
// routes — the stability an ECO exists to provide — rather than the routes
// a from-scratch run might newly prefer through the vacated space; every
// kept route is still verified legal against the new geometry and rerouted
// if blocked. DESIGN.md spells out the full semantics.
//
// On cancellation the partially repaired — but internally consistent —
// state is installed in the engine and returned with the context's error;
// a later Commit of a fresh Edit (even an empty one is not needed — any
// RouteNegotiated call) can resume draining the remaining overflow.
//
// A panic anywhere in the commit is recovered and returned as an error
// matching ErrCommitPanic rather than unwinding through the caller.
// Per-net routing panics during the repair are already isolated by the
// negotiator; any other panic can only originate before the install step
// (the install itself is one store of a state built before it), so the
// engine is left exactly as it was.
func (tx *Edit) Commit(ctx context.Context) (res *ECOResult, err error) {
	e := tx.e
	defer recoverCommitPanic(&res, &err)
	if tx.committed {
		return nil, fmt.Errorf("genroute: Edit already committed")
	}
	w, err := e.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { e.w <- w }()
	s := e.st.Load()
	if s.cur == nil {
		return nil, errNotRouted("Edit.Commit")
	}
	start := time.Now()
	if len(tx.ops) == 0 {
		tx.committed = true
		return &ECOResult{
			Result:    s.cur,
			Converged: s.m.TotalOverflow() == 0,
			Elapsed:   time.Since(start),
		}, nil
	}

	// 1. Build the edited layout on top of the installed one, which is
	// never written after install (see Engine.Layout): the new layout
	// shares every cell and net the edit leaves alone. The net slice is
	// always new; a move also copies the cell slice, the moved cells'
	// outlines and the nets with pins on them. The staged nets are copied
	// too: the pins of an added net ride with a moved cell below, and the
	// staged ops must keep the coordinates the caller gave, which are what
	// the journal records and what a retried commit translates.
	next := make([]int, len(s.l.Nets)) // old net index → new, -1 if removed
	var adds []Net
	moves := map[string]Point{} // cell name → accumulated delta
	for _, op := range tx.ops {
		switch op.kind {
		case opAddNet:
			adds = append(adds, cloneNet(&op.net))
		case opRemoveNet:
			// Staging checked the removal against the layout of its day; a
			// commit installed since may have removed the net already.
			// Skipping the name would journal a record replay rejects.
			i, ok := s.netIdx[op.name]
			if !ok {
				return nil, fmt.Errorf("genroute: ECO edit removes net %q, which a commit since staging removed", op.name)
			}
			next[i] = -1
		case opMoveCell:
			moves[op.name] = moves[op.name].Add(op.d)
		}
	}
	l2 := &Layout{Name: s.l.Name, Bounds: s.l.Bounds, Cells: s.l.Cells}
	l2.Nets = make([]Net, 0, len(s.l.Nets)+len(adds))
	for i := range s.l.Nets {
		if next[i] < 0 {
			continue
		}
		next[i] = len(l2.Nets)
		l2.Nets = append(l2.Nets, s.l.Nets[i])
	}
	numKept := len(l2.Nets)
	l2.Nets = append(l2.Nets, adds...)

	// One scan over the cells in index order resolves every move: cheaper
	// than the per-name scan it replaces (O(cells) vs O(moves·cells)) and it
	// fixes the translation and obstacle-splice order, keeping the commit
	// deterministic. delete keeps first-cell-wins for a duplicate cell name,
	// matching the old scan's break.
	movedCells := map[int]Point{} // cell index → delta
	var movedOrder []int          // the same keys, ascending
	for ci := range l2.Cells {
		d, ok := moves[l2.Cells[ci].Name]
		if !ok || d == Pt(0, 0) {
			continue
		}
		delete(moves, l2.Cells[ci].Name)
		movedCells[ci] = d
		movedOrder = append(movedOrder, ci)
	}
	var pinMoved []bool // by kept net: a pin on a moved cell (moves only)
	if len(movedOrder) > 0 {
		l2.Cells = append([]Cell(nil), l2.Cells...)
		for _, ci := range movedOrder {
			d := movedCells[ci]
			c := &l2.Cells[ci]
			c.Box = c.Box.Translate(d)
			if len(c.Poly) > 0 {
				poly := make([]Point, len(c.Poly))
				for vi, v := range c.Poly {
					poly[vi] = v.Add(d)
				}
				c.Poly = poly
			}
		}
		// Pins ride with their cell, exactly like placement adjustment. A
		// kept net is copied before its pins move; an added net is the
		// commit's own copy already.
		pinMoved = make([]bool, numKept)
		for ni := range l2.Nets {
			if !netTouchesCells(&l2.Nets[ni], movedCells) {
				continue
			}
			if ni < numKept {
				l2.Nets[ni] = cloneNet(&l2.Nets[ni])
				pinMoved[ni] = true
			}
			for ti := range l2.Nets[ni].Terminals {
				pins := l2.Nets[ni].Terminals[ti].Pins
				for pi := range pins {
					if d, ok := movedCells[int(pins[pi].Cell)]; ok {
						pins[pi].Pos = pins[pi].Pos.Add(d)
					}
				}
			}
		}
	}

	// 2. Validate what the edit touched. s.l passed Validate (the invariant
	// every install keeps), so ValidateEdit returns exactly what
	// l2.Validate() would, at a fraction of the cost (DESIGN.md,
	// "Validation cost"). Failure leaves the engine untouched.
	if err := l2.ValidateEdit(movedOrder, numKept); err != nil {
		return nil, fmt.Errorf("genroute: ECO edit produces an invalid layout: %w", err)
	}
	if ferr := faultinject.Fire(faultinject.Commit, "validated"); ferr != nil {
		return nil, ferr
	}
	// l2 is final from here on. The journal record carries its fingerprint,
	// a whole-layout pass that runs beside the repair instead of before the
	// append. Every return waits for it, so no commit outlives its reads.
	var (
		postHash uint64 // 0 = not computed: folds and checkpoints fingerprint on demand
		hashing  sync.WaitGroup
	)
	if w.jr != nil {
		hashing.Add(1)
		go func() {
			defer hashing.Done()
			postHash = snapshot.LayoutHash(l2)
		}()
		defer hashing.Wait()
	}

	// 3. Edit the obstacle index: a move replaces its cells' obstacles in
	// place, so no obstacle id changes and the session's spans never do.
	// Passages are re-extracted only when geometry moved, and only around it.
	ix2, passages2 := s.ix, s.passages
	geometryChanged := len(movedCells) > 0
	if geometryChanged {
		// ExtractEdit's remap is the identity with -1 at the replaced ids,
		// which are also the ids of the new rectangles (result identical to
		// a fresh congest.Extract — see its equivalence guarantee).
		remap := make([]int32, s.ix.NumCells())
		for i := range remap {
			remap[i] = int32(i)
		}
		var ids []int
		var rects, removedRects []geom.Rect
		for _, ci := range movedOrder {
			for id := s.spans[ci][0]; id < s.spans[ci][1]; id++ {
				ids, remap[id] = append(ids, id), -1
				removedRects = append(removedRects, s.ix.Cell(id))
			}
			rects = append(rects, l2.Cells[ci].ObstacleRects()...)
		}
		var err error
		if ix2, err = s.ix.Replace(ids, rects); err != nil {
			return nil, err
		}
		passages2, err = congest.ExtractEdit(ix2, e.cfg.congest.Pitch, s.passages, remap, removedRects, ids)
		if err != nil {
			return nil, err
		}
	}

	// 4. Carry the routing state over to the new net numbering.
	cur2 := &router.LayoutResult{Nets: make([]router.NetRoute, len(l2.Nets))}
	for i, k := range next {
		if k >= 0 {
			cur2.Nets[k] = s.cur.Nets[i]
		}
	}
	for ni := numKept; ni < len(l2.Nets); ni++ {
		cur2.Nets[ni] = router.NetRoute{Net: l2.Nets[ni].Name}
	}

	// 5. The dirty set: added nets, nets whose pins moved, kept routes the
	// new geometry blocks, and — after a geometry change — previously
	// unrouted nets, which the new placement may have made routable (a
	// from-scratch run would retry them too).
	// Built in one ascending scan, so the list needs no sort and no
	// map-keyed collection: added nets are dirty by construction, kept nets
	// only when the geometry change touched or blocked them.
	dirtyList := make([]int, 0, len(l2.Nets)-numKept)
	for ni := range l2.Nets {
		isDirty := ni >= numKept
		if !isDirty && geometryChanged {
			isDirty = !cur2.Nets[ni].Found || pinMoved[ni] || routeBlocked(ix2, cur2.Nets[ni].Segments)
		}
		if isDirty {
			dirtyList = append(dirtyList, ni)
		}
	}

	// 6. The live map. With unchanged passages and numbering (pure
	// additions) the session's map carries over as a copy; a removal
	// renumbers a copy, dropping the removed nets' routes. A move changes
	// the passage set, so the map is rebuilt from the carried-over routes.
	// History survives as long as the passage set does.
	var m2 *congest.Map
	history2 := s.history
	switch {
	case geometryChanged:
		m2 = congest.BuildMap(passages2, cur2.NetSegments())
		history2 = nil // per-passage history is meaningless across a re-extract
	case numKept != len(s.l.Nets):
		m2 = s.m.Renumber(next)
	default:
		m2 = s.m.Clone()
	}

	// 7. Repair: reroute the dirty set against the live map, then drain
	// any overflow worklist-style (congest.RepairCtx).
	rres, err := congest.RepairCtx(ctx, l2, ix2, passages2, m2, cur2, dirtyList,
		e.ripupConfig("eco", ix2, len(l2.Nets)), history2)
	if err != nil && rres == nil {
		return nil, err // hard routing error: engine untouched
	}

	// Fault seam: the last point where a failure leaves the engine
	// untouched — everything below is the install.
	if ferr := faultinject.Fire(faultinject.Commit, "install"); ferr != nil {
		return nil, ferr
	}

	// 7b. Write-ahead journal: with WithJournalFile, the staged edit set is
	// appended and fsynced here, after everything fallible and immediately
	// before the install — so a journaled record and the installed state
	// can only diverge by a crash before the store below, which replay then
	// completes (unacked-record-may-apply, the standard WAL contract). A
	// journal failure aborts the commit with the engine untouched.
	if w.jr != nil {
		hashing.Wait()
		if jerr := e.journalAppend(w, tx, postHash); jerr != nil {
			return nil, fmt.Errorf("%w: %w", ErrJournalAppend, jerr)
		}
	}

	// 8. Install the new session state (also on cancellation: the partial
	// repair is consistent — routes, map and history agree).
	tx.committed = true
	final := cur2
	if len(rres.Results) > 0 {
		final = rres.Final()
	} else {
		// No repair pass ran (pure removals, nothing dirty, no overflow):
		// the carried-over routes are installed as-is, so recompute the
		// aggregates — otherwise Result().TotalLength would read 0 after
		// such a commit.
		final.Finalize(start)
	}
	e.st.Store(e.prepared(l2, ix2, s.spans, passages2).routed(final, m2, rres.History))
	w.pending = nil
	w.lhash = postHash // the new layout's fingerprint, if the journal took one

	// 9. Fold the journal when it has outgrown its thresholds (non-fatal:
	// the commit above is already durable either way).
	e.journalCompact(w)

	out := &ECOResult{
		Dirty:     netNames(l2, dirtyList),
		Repair:    rres,
		Result:    final,
		Converged: rres.Converged,
		Elapsed:   time.Since(start),
	}
	return out, err
}

// ErrCommitPanic marks an Edit.Commit error that is a recovered panic: a
// fault in the engine, not in the staged edits. The engine is left exactly
// as it was.
var ErrCommitPanic = errors.New("genroute: ECO commit panicked")

// recoverCommitPanic is Commit's deferred panic guard: any panic in the
// commit becomes an error return (matching ErrCommitPanic) and the engine
// is left exactly as it was (see the Commit doc for why no torn state can
// escape).
//
//grlint:recoverguard ECO commits convert panics to errors so a poisoned edit cannot unwind the caller
func recoverCommitPanic(res **ECOResult, err *error) {
	if v := recover(); v != nil {
		*res = nil
		*err = fmt.Errorf("%w: %v\n%s", ErrCommitPanic, v, debug.Stack())
	}
}

// netTouchesCells reports whether any pin of the net sits on one of the
// given cells.
func netTouchesCells(n *Net, cells map[int]Point) bool {
	for ti := range n.Terminals {
		for _, p := range n.Terminals[ti].Pins {
			if _, ok := cells[int(p.Cell)]; ok {
				return true
			}
		}
	}
	return false
}

// routeBlocked reports whether any segment of a route crosses an obstacle
// interior of the given index.
func routeBlocked(ix *plane.Index, segs []Seg) bool {
	for _, s := range segs {
		if _, blocked := ix.SegBlocked(s); blocked {
			return true
		}
	}
	return false
}

// netNames resolves net indices to names.
func netNames(l *Layout, idx []int) []string {
	out := make([]string, len(idx))
	for i, ni := range idx {
		out[i] = l.Nets[ni].Name
	}
	return out
}

// cloneNet deep-copies a net (terminals and pins).
func cloneNet(n *Net) Net {
	cp := Net{Name: n.Name, Terminals: make([]layout.Terminal, len(n.Terminals))}
	for i := range n.Terminals {
		t := n.Terminals[i]
		cp.Terminals[i] = layout.Terminal{Name: t.Name, Pins: append([]Pin(nil), t.Pins...)}
	}
	return cp
}
