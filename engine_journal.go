package genroute

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/layout"
	"repro/internal/snapshot"
)

// This file wires the write-ahead ECO journal (internal/journal) into the
// engine. With WithJournalFile configured, constructing the engine writes
// the journal's header and base, and every Edit.Commit appends its staged
// edit set — fsynced — *before* installing the new state, so an
// acknowledged commit survives kill -9 at any instant. LoadEngineJournal is
// the matching recovery path: restore the base state, re-apply every edit
// record, and prove layout-level convergence against each record's
// post-commit fingerprint.
//
// The journal is a session's one durable file: a journal without records is
// a snapshot, whose base carries the session payload (internal/snapshot)
// and is restored over the creation layout without re-validation. A
// negotiation in flight lives there too: with WithCheckpointEvery every
// checkpoint is a fold whose base carries it.

// WithJournalFile makes the session durable in one append-only journal at
// path. NewEngine writes the journal's header — the fingerprint and pitch
// of the layout the session is created over — and a base state, replacing
// any file at path; a failed write fails construction with an error
// matching ErrJournalAppend. Every Edit.Commit then appends its staged edit
// set and fsyncs before installing. Recover with LoadEngineJournal, which
// replays the journal and converges to the same layout (and, for an
// uninterrupted history, the same routes) as the live session. After
// journal.DefaultCompactRecords records or journal.DefaultCompactBytes
// bytes a commit folds the journal into a fresh base so replay cost stays
// bounded. RouteAll and RouteNegotiated fold it after every run as well:
// the routes they install are described by no record. When that fold fails
// they return ErrJournalFold, and the next commit folds before it appends.
func WithJournalFile(path string) Option {
	return func(c *config) { c.jrnlPath = path }
}

// ErrJournalFold marks the error RouteAll and RouteNegotiated return when
// they installed their routes but could not fold the session's ECO journal
// into a fresh base. Until a fold succeeds — the next Edit.Commit retries
// it before appending, and fails if it cannot — recovery from the journal
// yields the session as it was before the flow.
var ErrJournalFold = errors.New("genroute: ECO journal fold failed")

// ErrJournalAppend marks a failure to write the ECO journal durably: an
// Edit.Commit that could not append its edit set (a write, fsync or
// pre-append fold failure), which leaves the engine untouched, or a
// NewEngine that could not write the journal's base. The failure is the
// server's, not the edit's or the layout's.
var ErrJournalAppend = errors.New("genroute: ECO journal append failed")

// JournalStats reports the ECO journal's durability counters (records and
// bytes since the last fold, last append/fsync error) as of the writer's
// last append, fold or close. ok is false when the session has no journal:
// none was configured with WithJournalFile. It takes no writer token, so it
// answers while a negotiation runs.
func (e *Engine) JournalStats() (st journal.Stats, ok bool) {
	if p := e.jstats.Load(); p != nil {
		return *p, true
	}
	return journal.Stats{}, false
}

// CloseJournal retires the engine: it waits for the writer token, flushes
// and closes the journal file, if any, and keeps the token for good. Every
// later RouteAll, RouteNegotiated or Edit.Commit fails at once with
// ErrRetired; reads keep working. So this is the eviction hook: once it
// returns, every acknowledged record is on disk, the descriptor is
// released, and nothing will append to the file again, which a successor
// engine may then open. A second call returns nil.
func (e *Engine) CloseJournal() error {
	w, ok := <-e.w
	if !ok {
		return nil // retired already
	}
	close(e.w)
	if w.jr == nil {
		return nil
	}
	err := w.jr.Close()
	e.publishStats(w)
	return err
}

// publishStats publishes the journal's counters for JournalStats.
func (e *Engine) publishStats(w *writer) {
	st := w.jr.Stats()
	e.jstats.Store(&st)
}

// journalCreate writes the journal's header and base for a freshly built
// session, when WithJournalFile asks for one. The session's layout is the
// creation layout, so the base carries no layout of its own. Without a
// journal, WithCheckpointEvery fails construction: its checkpoints would
// have nowhere to go.
func (e *Engine) journalCreate(w *writer) error {
	if e.cfg.jrnlPath == "" {
		if e.cfg.checkpoint {
			return errors.New("genroute: WithCheckpointEvery needs WithJournalFile: checkpoints are folds of the session's journal")
		}
		return nil
	}
	hdr := journal.Header{LayoutHash: e.layoutHash(w), Pitch: e.cfg.congest.Pitch}
	rb, err := e.journalRebase(w, hdr.LayoutHash)
	if err == nil {
		w.jr, err = journal.Create(e.cfg.jrnlPath, hdr, rb)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrJournalAppend, err)
	}
	w.jr.SetCompaction(e.cfg.jrnlRecords, e.cfg.jrnlBytes)
	e.publishStats(w)
	return nil
}

// journalRebase builds a base state from the *current* session state: the
// session payload, plus the layout as compact JSON once edits have moved it
// off created, the journal header's fingerprint. While the layout still
// fingerprints to the header, recovery restores the base over the creation
// layout its caller presents.
func (e *Engine) journalRebase(w *writer, created uint64) (journal.Rebase, error) {
	rb := journal.Rebase{Session: snapshot.EncodeSession(e.session(w))}
	if e.layoutHash(w) != created {
		lj, err := json.Marshal(e.st.Load().l)
		if err != nil {
			return journal.Rebase{}, err
		}
		rb.LayoutJSON = lj
	}
	return rb, nil
}

// journalAppend is Commit's write-ahead hook, called after the repair
// succeeded and before the install: it encodes the staged ops and appends
// them with fsync. A non-nil error aborts the commit with the engine
// untouched — on disk the journal holds at worst a torn tail, which the
// next open truncates.
func (e *Engine) journalAppend(w *writer, tx *Edit, postHash uint64) error {
	if w.jrStale {
		// The base predates a whole-layout flow: replaying this record on
		// it would revive the routes that flow replaced. The current state
		// is the pre-edit one, so it becomes the base this record extends.
		if err := e.journalFold(w); err != nil {
			return err
		}
	}
	rec := journal.Record{PostHash: postHash}
	rec.Ops = make([]journal.Op, 0, len(tx.ops))
	for i := range tx.ops {
		op, err := encodeEditOp(&tx.ops[i])
		if err != nil {
			return err
		}
		rec.Ops = append(rec.Ops, op)
	}
	err := w.jr.Append(&rec)
	e.publishStats(w)
	return err
}

// journalCompact folds the journal into a fresh base built from the
// just-installed state, when it has outgrown its thresholds. Called after
// the install. Failure is non-fatal — the commit is already durable in the
// un-folded journal; a failed write is retained in the journal's Stats (a
// failed base build is transient and not recorded) and the next commit
// retries.
func (e *Engine) journalCompact(w *writer) {
	if w.jr == nil || !w.jr.ShouldCompact() {
		return
	}
	_ = e.journalFold(w) // non-fatal, as above
}

// journalFoldAfterFlow folds the journal after a whole-layout flow
// (RouteAll, RouteNegotiated) installed its routes, under the same token.
// The flow replaced routes that no journal record describes, so without
// the fold LoadEngineJournal would replay the records onto the old base
// and revive the replaced routes. A failed fold marks the journal stale
// and is returned joined to the flow's own error err, matching
// ErrJournalFold.
func (e *Engine) journalFoldAfterFlow(w *writer, err error) error {
	if ferr := e.journalFold(w); ferr != nil {
		w.jrStale = true
		return errors.Join(err, fmt.Errorf("%w: %w", ErrJournalFold, ferr))
	}
	return err
}

// journalFold folds the journal, when the session has one, into a fresh
// base built from the current state, which makes it current again.
func (e *Engine) journalFold(w *writer) error {
	if w.jr == nil {
		return nil
	}
	rb, err := e.journalRebase(w, w.jr.Header().LayoutHash)
	if err == nil {
		err = w.jr.Compact(rb)
		e.publishStats(w)
	}
	if err != nil {
		return err
	}
	w.jrStale = false
	return nil
}

// encodeEditOp serializes one staged op for the journal.
func encodeEditOp(op *editOp) (journal.Op, error) {
	switch op.kind {
	case opAddNet:
		nj, err := json.Marshal(&op.net)
		if err != nil {
			return journal.Op{}, err
		}
		return journal.Op{Kind: journal.OpAddNet, NetJSON: nj}, nil
	case opRemoveNet:
		return journal.Op{Kind: journal.OpRemoveNet, Name: op.name}, nil
	case opMoveCell:
		return journal.Op{Kind: journal.OpMoveCell, Name: op.name, DX: op.d.X, DY: op.d.Y}, nil
	}
	return journal.Op{}, fmt.Errorf("genroute: unknown edit op kind %d", op.kind)
}

// applyJournalOp stages one journaled op on a replay transaction.
func applyJournalOp(tx *Edit, op *journal.Op) error {
	switch op.Kind {
	case journal.OpAddNet:
		var n Net
		if err := json.Unmarshal(op.NetJSON, &n); err != nil {
			return fmt.Errorf("%w: journaled AddNet payload: %v", ErrSnapshotCorrupt, err)
		}
		return tx.AddNet(n)
	case journal.OpRemoveNet:
		return tx.RemoveNet(op.Name)
	case journal.OpMoveCell:
		return tx.MoveCell(op.Name, op.DX, op.DY)
	}
	return fmt.Errorf("%w: journaled op kind %d", ErrSnapshotCorrupt, op.Kind)
}

// LoadEngineJournal rebuilds a session from its ECO journal: restore the
// base state, re-apply every edit record in order, and attach the journal
// for further appends (truncating a torn tail first). l is the layout the
// session was created over; a journal created over any other layout fails
// closed with ErrSnapshotLayout, and one written by a build of another
// codec version with ErrSnapshotVersion. A base that carries no layout of
// its own is restored over l: the obstacle index is rebuilt from its
// cells, and the fingerprint match proves l is the layout that passed
// Validate, so nothing is re-validated. A base folded after edits embeds
// the edited layout, which is decoded and validated like any other input.
// Each replayed commit is verified against the record's post-commit layout
// fingerprint — divergence fails closed with ErrSnapshotCorrupt rather
// than resurrecting a wrong session. A negotiation in flight in the base is
// restored with it; a replayed commit retires it exactly as the live commit
// did, and RouteNegotiated on the recovered session continues one that
// survives.
//
// Replay-equals-live: Edit.Commit's repair is deterministic (fixed rip-up
// order, byte-identical across worker counts), so replaying the records of
// an uninterrupted session reproduces its routes byte-identically. A
// session whose final live commit was cancelled mid-repair converges
// further than the live engine did — replay runs uncancelled — landing on
// the state the finished repair would have reached; the layout fingerprint
// check still holds because cancellation never changes the edited
// geometry, only how much overflow has drained.
//
// opts apply as in NewEngine, except WithPitch: the base's pitch wins,
// since its passage capacities were extracted at it. The journal at path
// stays the session's journal whatever WithJournalFile says.
func LoadEngineJournal(path string, l *Layout, opts ...Option) (*Engine, error) {
	s, err := journal.ScanFile(path)
	if err != nil {
		return nil, err
	}
	base := l.Clone()
	base.NormalizeBoxes()
	h := snapshot.LayoutHash(base)
	if h != s.Header.LayoutHash {
		return nil, fmt.Errorf("%w: layout %q fingerprints %016x, journal was created over %016x",
			ErrSnapshotLayout, l.Name, h, s.Header.LayoutHash)
	}
	if len(s.Rebase.LayoutJSON) > 0 {
		if base, err = layout.ReadJSON(bytes.NewReader(s.Rebase.LayoutJSON)); err != nil {
			return nil, fmt.Errorf("%w: journal rebase layout: %v", ErrSnapshotCorrupt, err)
		}
		h = snapshot.LayoutHash(base)
	}
	sess, err := snapshot.DecodeSession(s.Rebase.Session)
	if err != nil {
		return nil, err
	}
	// Replay runs without a journal attached: the records being re-applied
	// are already durable, and re-appending them would double the log.
	e, err := restoreEngine(sess, base, h, newConfig(opts))
	if err != nil {
		return nil, err
	}
	for i := range s.Records {
		rec := &s.Records[i]
		if err := faultinject.Fire(faultinject.JournalApply, path); err != nil {
			return nil, err
		}
		tx := e.Edit()
		for k := range rec.Ops {
			if err := applyJournalOp(tx, &rec.Ops[k]); err != nil {
				return nil, fmt.Errorf("journal replay: record %d: %w", rec.Seq, err)
			}
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			return nil, fmt.Errorf("journal replay: record %d: %w", rec.Seq, err)
		}
		if h = snapshot.LayoutHash(e.Layout()); h != rec.PostHash {
			return nil, fmt.Errorf("%w: journal replay diverged at record %d: layout fingerprints %016x, record expects %016x",
				ErrSnapshotCorrupt, rec.Seq, h, rec.PostHash)
		}
	}
	jr, err := journal.OpenAppend(path, s)
	if err != nil {
		return nil, err
	}
	jr.SetCompaction(e.cfg.jrnlRecords, e.cfg.jrnlBytes)
	w := <-e.w // free: the engine is not shared yet
	w.jr, w.lhash = jr, h
	e.publishStats(w)
	e.w <- w
	return e, nil
}

// session is the state a journal base carries: the layout fingerprint, the
// congestion pitch and passage tables, the per-net routes and overflow
// history once the session has routed, and the negotiation in flight, if
// any. The obstacle index, interval trees and memoized validation geometry
// are left out: they are deterministic functions of the layout, rebuilt
// far more cheaply than re-validating.
func (e *Engine) session(w *writer) *snapshot.Session {
	s := e.st.Load()
	sess := &snapshot.Session{
		LayoutHash: e.layoutHash(w),
		Pitch:      e.cfg.congest.Pitch,
		Passages:   s.passages,
	}
	if s.cur != nil {
		sess.Routed = true
		sess.Nets = s.cur.Nets
		sess.History = s.history
	}
	sess.Negotiation = w.pending
	return sess
}
