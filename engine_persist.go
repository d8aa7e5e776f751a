package genroute

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/congest"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/snapshot"
)

// Typed persistence errors, for errors.Is. Save/LoadEngine and the
// checkpoint flows fail closed: a snapshot that cannot be proven to match
// is rejected with one of these rather than producing a silently wrong
// session.
var (
	// ErrSnapshotFormat marks a stream that is not a snapshot at all.
	ErrSnapshotFormat = snapshot.ErrFormat
	// ErrSnapshotVersion marks a snapshot from an incompatible codec
	// version (version skew across builds).
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotChecksum marks a snapshot whose payload checksum fails.
	ErrSnapshotChecksum = snapshot.ErrChecksum
	// ErrSnapshotCorrupt marks a checksummed payload that does not decode.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotLayout marks a snapshot or checkpoint applied to a layout
	// (or pitch) other than the one it was saved over.
	ErrSnapshotLayout = snapshot.ErrLayout
)

// layoutHash memoizes the session layout's fingerprint; ECO commits reset
// the memo because they mutate the layout. (A genuine hash of 0 only costs
// a recompute, never a wrong value; the memo is atomic so concurrent
// readers can race on it benignly.)
func (e *Engine) layoutHash() uint64 {
	if h := e.lhash.Load(); h != 0 {
		return h
	}
	h := snapshot.LayoutHash(e.l)
	e.lhash.Store(h)
	return h
}

// Save serializes the prepared session to w: the layout fingerprint, the
// congestion pitch and passage tables, and — when the session has routed —
// the per-net routes and overflow history. The obstacle index, interval
// trees and memoized validation geometry are NOT serialized: they are
// deterministic functions of the layout and rebuilding them is far cheaper
// than re-validating, so LoadEngine reconstructs them from the layout it is
// handed and uses the embedded fingerprint to prove that layout is
// byte-identical to the validated one saved over.
func (e *Engine) Save(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.saveLocked(w)
}

// LoadEngine rebuilds a prepared session from a snapshot written by Save.
// l must be the same layout the snapshot was saved over: it is fingerprinted
// (after normalizing bare polygon boxes, as Validate would) and any drift
// fails closed with ErrSnapshotLayout. The match is also what makes the
// warm start fast — the saved layout passed Validate, so a byte-identical
// layout need not be re-validated, and the obstacle index is rebuilt
// directly from the cells.
//
// The snapshot's pitch overrides any WithPitch option: the serialized
// passage capacities were extracted at that pitch, and a session must stay
// consistent with its own tables. Other options apply as in NewEngine.
func LoadEngine(r io.Reader, l *Layout, opts ...Option) (*Engine, error) {
	sess, err := snapshot.DecodeSession(r)
	if err != nil {
		return nil, err
	}
	lc := l.Clone()
	lc.NormalizeBoxes()
	e, err := restoreEngine(sess, lc, snapshot.LayoutHash(lc), newConfig(opts))
	if err != nil {
		return nil, err
	}
	if err := e.journalCreate(); err != nil {
		return nil, err
	}
	return e, nil
}

// restoreEngine rebuilds a session from a decoded Save frame over lc, a
// private box-normalized layout that fingerprints to h. Any other
// fingerprint than the frame's fails closed with ErrSnapshotLayout. Nothing
// is validated: the layout the frame was saved over passed Validate, and
// the fingerprint proves lc is that layout. No journal is attached.
func restoreEngine(sess *snapshot.Session, lc *Layout, h uint64, cfg config) (*Engine, error) {
	if h != sess.LayoutHash {
		return nil, fmt.Errorf("%w: layout %q fingerprints %016x, snapshot was saved over %016x",
			ErrSnapshotLayout, lc.Name, h, sess.LayoutHash)
	}
	cfg.congest.Pitch = sess.Pitch
	e := &Engine{l: lc, cfg: cfg}
	e.lhash.Store(h)
	var err error
	if e.ix, e.spans, err = plane.FromLayoutSpans(e.l); err != nil {
		return nil, err
	}
	e.r = router.New(e.ix, e.cfg.routerOptions(e.ix))
	e.passages = sess.Passages
	e.reindexNets()
	if sess.Routed {
		if len(sess.Nets) != len(lc.Nets) {
			return nil, fmt.Errorf("%w: snapshot routes %d nets, layout has %d",
				ErrSnapshotCorrupt, len(sess.Nets), len(lc.Nets))
		}
		res := &router.LayoutResult{Nets: sess.Nets}
		for i := range res.Nets {
			res.Nets[i].Net = lc.Nets[i].Name
		}
		res.Finalize(time.Now())
		e.setState(res, congest.BuildMap(e.passages, netSegments(res)), sess.History)
	}
	return e, nil
}

// Checkpoint is a decoded negotiation checkpoint (see ReadCheckpoint and
// Engine.ResumeNegotiated). It is opaque apart from a few read-only
// descriptors for reporting.
type Checkpoint struct {
	f *snapshot.CheckpointFile
}

// Passes reports how many negotiation passes were recorded when the
// checkpoint was taken.
func (cp *Checkpoint) Passes() int { return cp.f.CP.PassesRecorded }

// InPass reports whether the checkpoint was taken mid-pass (true) or at a
// pass boundary.
func (cp *Checkpoint) InPass() bool { return cp.f.CP.InPass }

// ReadCheckpoint decodes a checkpoint file written by a session configured
// with WithCheckpointFile.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	f, err := snapshot.DecodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{f: f}, nil
}

// ResumeNegotiated continues a negotiation run from a checkpoint taken over
// this session's layout and pitch (anything else fails closed with
// ErrSnapshotLayout). The resumed run is byte-identical to the
// uninterrupted one: it finishes the interrupted pass from the exact rip it
// stopped at and continues under the original pass budget. The returned
// result covers the resumed portion only; the session's state is installed
// exactly as RouteNegotiated would.
func (e *Engine) ResumeNegotiated(ctx context.Context, cp *Checkpoint) (*NegotiatedResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cp.f.LayoutHash != e.layoutHash() {
		return nil, fmt.Errorf("%w: checkpoint was taken over a different layout", ErrSnapshotLayout)
	}
	if cp.f.Pitch != e.cfg.congest.Pitch {
		return nil, fmt.Errorf("%w: checkpoint pitch %d, session pitch %d",
			ErrSnapshotLayout, cp.f.Pitch, e.cfg.congest.Pitch)
	}
	inner := cp.f.CP
	if len(inner.Nets) != len(e.l.Nets) {
		return nil, fmt.Errorf("%w: checkpoint routes %d nets, layout has %d",
			ErrSnapshotLayout, len(inner.Nets), len(e.l.Nets))
	}
	// The codec does not store net names; they are positional in the
	// layout the checkpoint belongs to.
	nets := make([]router.NetRoute, len(inner.Nets))
	copy(nets, inner.Nets)
	for i := range nets {
		nets[i].Net = e.l.Nets[i].Name
	}
	inner.Nets = nets
	res, err := congest.NegotiateResume(ctx, e.l, e.ix, e.passages, e.negotiateConfig(), &inner)
	return res, e.installNegotiated(res, err)
}

// negotiateConfig assembles the congest.Config for a (fresh or resumed)
// negotiation run: congestion parameters, workers, base router options,
// the progress adapter and — with WithCheckpointFile — the atomic
// checkpoint writer.
func (e *Engine) negotiateConfig() congest.Config {
	ccfg := e.cfg.congest
	ccfg.Workers = e.cfg.workers
	ccfg.BaseOptions = e.cfg.routerOptions(e.ix) // corner rule, mode, budget, trace hooks
	if e.cfg.progress != nil {
		total := len(e.l.Nets)
		ccfg.OnPass = func(n int, p congest.Pass) {
			e.emit(passProgress("negotiate", n, p, total))
		}
	}
	if e.cfg.ckptPath != "" {
		path := e.cfg.ckptPath
		ccfg.CheckpointEvery = e.cfg.ckptEvery
		ccfg.Checkpoint = func(cp *congest.Checkpoint) error {
			return writeCheckpointFile(path, &snapshot.CheckpointFile{
				LayoutHash: e.layoutHash(),
				Pitch:      e.cfg.congest.Pitch,
				CP:         *cp,
			})
		}
	}
	return ccfg
}

// installNegotiated installs a negotiation result as the session state. A
// completed run installs its final pass. An interrupted run (cancellation
// or deadline expiry) installs the best recorded pass — minimum overflow,
// most nets routed — rather than the last partial one: overflow is not
// monotone across passes, and the best state seen is what a deadline-bound
// caller wants to keep. The History installed is the whole run's (it
// accrues monotonically and seeds any follow-up negotiation). After an
// install the ECO journal, if any, is folded (see
// journalFoldAfterFlowLocked). It returns the run's error joined with a
// failed fold's.
func (e *Engine) installNegotiated(res *congest.NegotiateResult, err error) error {
	if res == nil || len(res.Results) == 0 {
		return err
	}
	k := len(res.Results) - 1
	if err != nil {
		if b := res.BestPass(); b >= 0 {
			k = b
		}
	}
	e.setState(res.Results[k], res.Maps[k].Clone(), append([]int(nil), res.History...))
	return e.journalFoldAfterFlowLocked(err)
}

// writeCheckpointFile writes a checkpoint atomically (see
// snapshot.WriteFileAtomic) — a crash mid-write leaves the previous
// checkpoint intact, never a torn one.
func writeCheckpointFile(path string, cf *snapshot.CheckpointFile) error {
	return snapshot.WriteFileAtomic(path, func(w io.Writer) error {
		return snapshot.EncodeCheckpoint(w, cf)
	}, nil)
}
