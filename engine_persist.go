package genroute

import (
	"fmt"
	"time"

	"repro/internal/congest"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/snapshot"
)

// Typed persistence errors, for errors.Is. LoadEngineJournal fails closed:
// a journal that cannot be proven to match is rejected with one of these
// rather than producing a silently wrong session.
var (
	// ErrSnapshotFormat marks a file that is not a session journal at all.
	ErrSnapshotFormat = snapshot.ErrFormat
	// ErrSnapshotVersion marks a journal from an incompatible codec version
	// (version skew across builds).
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotCorrupt marks a damaged journal: a frame whose payload
	// fails its checksum, or a checksummed payload that does not decode.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotLayout marks a journal applied to a layout other than the
	// one it was created over.
	ErrSnapshotLayout = snapshot.ErrLayout
)

// layoutHash memoizes the session layout's fingerprint in w; ECO commits
// set the edited layout's, or reset the memo when they took none. (A
// genuine hash of 0 only costs a recompute, never a wrong value.)
func (e *Engine) layoutHash(w *writer) uint64 {
	if w.lhash == 0 {
		w.lhash = snapshot.LayoutHash(e.st.Load().l)
	}
	return w.lhash
}

// restoreEngine rebuilds a session from the decoded payload of a journal
// base over lc, a private box-normalized layout that fingerprints to h. Any
// other fingerprint than the payload's fails closed with ErrSnapshotLayout.
// The pitch is the payload's: its passage capacities were extracted at it.
// Nothing is validated: the layout the base was written over passed
// Validate, and the fingerprint proves lc is that layout. Routes that do
// not cover lc's nets, and a negotiation in flight that fails
// congest.Checkpoint.Validate against them, fail closed with
// ErrSnapshotCorrupt.
// No journal is attached.
func restoreEngine(sess *snapshot.Session, lc *Layout, h uint64, cfg config) (*Engine, error) {
	if h != sess.LayoutHash {
		return nil, fmt.Errorf("%w: layout %q fingerprints %016x, base was written over %016x",
			ErrSnapshotLayout, lc.Name, h, sess.LayoutHash)
	}
	cfg.congest.Pitch = sess.Pitch
	e, w := &Engine{cfg: cfg, w: make(chan *writer, 1)}, &writer{lhash: h}
	ix, spans, err := plane.FromLayoutSpans(lc)
	if err != nil {
		return nil, err
	}
	s := e.prepared(lc, ix, spans, sess.Passages)
	if sess.Routed {
		if len(sess.Nets) != len(lc.Nets) {
			return nil, fmt.Errorf("%w: base routes %d nets, layout has %d",
				ErrSnapshotCorrupt, len(sess.Nets), len(lc.Nets))
		}
		res := &router.LayoutResult{Nets: sess.Nets}
		for i := range res.Nets {
			res.Nets[i].Net = lc.Nets[i].Name
		}
		res.Finalize(time.Now())
		s = s.routed(res, congest.BuildMap(s.passages, res.NetSegments()), sess.History)
	}
	e.st.Store(s)
	if cp := sess.Negotiation; cp != nil {
		if err := cp.Validate(len(lc.Nets), len(sess.Passages)); err != nil {
			return nil, fmt.Errorf("%w: negotiation in flight: %v", ErrSnapshotCorrupt, err)
		}
		// The codec stores no net names: they are positional in lc.
		for i := range cp.Nets {
			cp.Nets[i].Net = lc.Nets[i].Name
		}
		w.pending = cp
	}
	e.w <- w
	return e, nil
}

// checkpoint is the negotiation's checkpoint hook, run under the token
// RouteNegotiated holds: cp becomes the negotiation in flight and the
// journal is folded, so its base carries it. When the fold fails or
// panics, the journal is left as it was and so is the pending state, which
// still matches it; the hook's error aborts the run.
func (e *Engine) checkpoint(w *writer, cp *congest.Checkpoint) error {
	prev := w.pending
	w.pending = cp
	folded := false
	defer func() {
		if !folded {
			w.pending = prev
		}
	}()
	if err := e.journalFold(w); err != nil {
		return err
	}
	folded = true
	return nil
}

// installNegotiated installs a negotiation result over s, the state the
// run negotiated, as the session state. A completed run installs its final
// pass. An interrupted run (cancellation or deadline expiry) installs the
// best recorded pass — minimum overflow, most nets routed — rather than
// the last partial one: overflow is not monotone across passes, and the
// best state seen is what a deadline-bound caller wants to keep. The map
// installed is a packed clone of the run's live map, which counts the last
// pass, or a fresh build over the best pass when that is an earlier one.
// The History installed is the whole run's (it accrues monotonically and
// seeds any follow-up negotiation). A completed run retires the
// negotiation in flight, as every install does; an interrupted one keeps
// its last checkpoint as the point the next RouteNegotiated resumes from.
// After an install the ECO journal, if any, is folded (see
// journalFoldAfterFlow). It returns the run's error joined with a failed
// fold's.
func (e *Engine) installNegotiated(w *writer, s *state, res *congest.NegotiateResult, err error) error {
	if res == nil || len(res.Results) == 0 {
		return err
	}
	k := len(res.Results) - 1
	if err != nil {
		if b := res.BestPass(); b >= 0 {
			k = b
		}
	}
	var m *congest.Map
	if k == len(res.Results)-1 {
		m = res.Map.Clone()
	} else {
		m = congest.BuildMap(s.passages, res.Results[k].NetSegments())
	}
	e.st.Store(s.routed(res.Results[k], m, res.History))
	if err == nil {
		w.pending = nil
	}
	return e.journalFoldAfterFlow(w, err)
}
