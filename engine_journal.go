package genroute

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/layout"
	"repro/internal/snapshot"
)

// This file wires the write-ahead ECO journal (internal/journal) into the
// engine. With WithJournalFile configured, every Edit.Commit appends its
// staged edit set to the journal — fsynced — *before* installing the new
// state, so an acknowledged commit survives kill -9 at any instant.
// LoadEngineJournal is the matching recovery path: rebuild the base state
// from the journal's embedded rebase, re-apply every edit record, and prove
// layout-level convergence against each record's post-commit fingerprint.
//
// The journal completes the durability triad:
//
//   - snapshot (Save/LoadEngine): the whole prepared session at a drain
//     point — cheap to load, but only as fresh as the last persistAll;
//   - checkpoint (WithCheckpointFile): mid-negotiation progress — protects
//     the long initial route, knows nothing of later edits;
//   - journal (WithJournalFile): per-operation ECO durability — every
//     acknowledged commit is recoverable, at replay (reroute) cost.

// WithJournalFile makes every committed ECO edit durable before it is
// acknowledged: Edit.Commit appends the staged edit set to an append-only
// journal at path — created on the first commit with the session's
// pre-edit state folded in as the recovery base — and fsyncs before
// installing. Recover with LoadEngineJournal, which replays the journal
// and converges to the same layout (and, for an uninterrupted history, the
// same routes) as the live session. After enough records or bytes
// (DefaultCompactRecords/DefaultCompactBytes, tunable with
// WithJournalCompaction) a commit folds the journal into a fresh base so
// replay cost stays bounded. Once the journal exists, RouteAll,
// RouteNegotiated and ResumeNegotiated fold it after every run as well:
// the routes they install are described by no record. When that fold
// fails they return ErrJournalFold, and the next commit folds before it
// appends.
func WithJournalFile(path string) Option {
	return func(c *config) { c.jrnlPath = path }
}

// ErrJournalFold marks the error RouteAll, RouteNegotiated and
// ResumeNegotiated return when they installed their routes but could not
// fold the session's ECO journal into a fresh base. Until a fold succeeds
// — the next Edit.Commit retries it before appending, and fails if it
// cannot — recovery from the journal yields the session as it was before
// the flow.
var ErrJournalFold = errors.New("genroute: ECO journal fold failed")

// ErrJournalAppend marks an Edit.Commit that failed to append its edit set
// to the ECO journal durably (a write, fsync or pre-append fold failure).
// The engine is left untouched; the failure is the server's, not the
// edit's.
var ErrJournalAppend = errors.New("genroute: ECO journal append failed")

// WithJournalCompaction overrides the journal fold thresholds: compact
// after records edit records or bytes journal bytes, whichever comes first
// (0 keeps the default for that axis).
func WithJournalCompaction(records int, bytes int64) Option {
	return func(c *config) {
		c.jrnlRecords = records
		c.jrnlBytes = bytes
	}
}

// JournalStats reports the ECO journal's durability counters (records and
// bytes since the last compaction, last append/fsync error). ok is false
// when the session has no journal — none configured, or no ECO committed
// yet.
func (e *Engine) JournalStats() (st journal.Stats, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.jr == nil {
		return journal.Stats{}, false
	}
	return e.jr.Stats(), true
}

// CloseJournal flushes and closes the journal file handle, if any. The
// session remains editable — the next committed edit reopens the journal —
// so this is the eviction hook: a cache dropping the engine first makes
// sure every acknowledged record is on disk and the descriptor is
// released.
func (e *Engine) CloseJournal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.jr == nil {
		return nil
	}
	return e.jr.Close()
}

// journalRebase builds a rebase base state from the *current* session
// state: the layout as compact JSON (a third the size of WriteJSON's
// indented form, and several times faster to encode; ReadJSON reads both)
// plus a full Save frame. Callers hold mu (any mode — only reads happen
// here).
func (e *Engine) journalRebase() (journal.Rebase, error) {
	lj, err := json.Marshal(e.l)
	if err != nil {
		return journal.Rebase{}, err
	}
	var sbuf bytes.Buffer
	if err := e.saveLocked(&sbuf); err != nil {
		return journal.Rebase{}, err
	}
	return journal.Rebase{LayoutJSON: lj, Session: sbuf.Bytes()}, nil
}

// journalAppendLocked is Commit's write-ahead hook, called under the
// exclusive lock after the repair succeeded and before the install: it
// lazily creates the journal (folding the pre-edit state in as the base),
// encodes the staged ops, and appends with fsync. A non-nil error aborts
// the commit with the engine untouched — on disk the journal holds at
// worst a torn tail, which the next open truncates.
func (e *Engine) journalAppendLocked(tx *Edit, postHash uint64) error {
	if e.jr == nil {
		rb, err := e.journalRebase()
		if err != nil {
			return err
		}
		j, err := journal.Create(e.cfg.jrnlPath, journal.Header{
			LayoutHash: e.layoutHash(),
			Pitch:      e.cfg.congest.Pitch,
		}, rb)
		if err != nil {
			return err
		}
		j.SetCompaction(e.cfg.jrnlRecords, e.cfg.jrnlBytes)
		e.jr = j
	}
	if e.jrStale {
		// The base predates a whole-layout flow: replaying this record on
		// it would revive the routes that flow replaced. The current state
		// is the pre-edit one, so it becomes the base this record extends.
		if err := e.journalFoldLocked(); err != nil {
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
	return e.jr.Append(&rec)
}

// journalCompactLocked folds the journal into a fresh base built from the
// just-installed state, when it has outgrown its thresholds. Called under
// the exclusive lock after the install. Failure is non-fatal — the commit
// is already durable in the un-folded journal; a failed write is retained
// in the journal's Stats (a failed base build is transient and not
// recorded) and the next commit retries.
func (e *Engine) journalCompactLocked() {
	if e.jr == nil || !e.jr.ShouldCompact() {
		return
	}
	_ = e.journalFoldLocked() // non-fatal, as above
}

// journalFoldAfterFlowLocked folds the journal after a whole-layout flow
// (RouteAll, RouteNegotiated, ResumeNegotiated) installed its routes,
// under the same exclusive lock. The flow replaced routes that no journal
// record describes, so without the fold LoadEngineJournal would replay the
// records onto the old base and revive the replaced routes. A failed fold
// marks the journal stale and is returned joined to the flow's own error
// err, matching ErrJournalFold.
func (e *Engine) journalFoldAfterFlowLocked(err error) error {
	if ferr := e.journalFoldLocked(); ferr != nil {
		e.jrStale = true
		return errors.Join(err, fmt.Errorf("%w: %w", ErrJournalFold, ferr))
	}
	return err
}

// journalFoldLocked folds the journal, when the session has one, into a
// fresh base built from the current state, which makes it current again.
func (e *Engine) journalFoldLocked() error {
	if e.jr == nil {
		return nil
	}
	rb, err := e.journalRebase()
	if err != nil {
		return err
	}
	if err := e.jr.Compact(rb); err != nil {
		return err
	}
	e.jrStale = false
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

// LoadEngineJournal rebuilds a session from its ECO journal: decode the
// embedded base state (layout + session snapshot), re-apply every edit
// record in order, and attach the journal for further appends (truncating
// a torn tail first). Each replayed commit is verified against the
// record's post-commit layout fingerprint — divergence fails closed with
// ErrSnapshotCorrupt rather than resurrecting a wrong session.
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
// The journal carries its own layout, so no external layout argument is
// needed; callers that recover a serve session verify the journal header's
// fingerprint against the client's layout separately. opts apply as in
// LoadEngine (the embedded snapshot's pitch wins); the journal path is
// re-attached automatically — WithJournalFile is not required.
func LoadEngineJournal(path string, opts ...Option) (*Engine, error) {
	s, err := journal.ScanFile(path)
	if err != nil {
		return nil, err
	}
	l, err := layout.ReadJSON(bytes.NewReader(s.Rebase.LayoutJSON))
	if err != nil {
		return nil, fmt.Errorf("%w: journal rebase layout: %v", ErrSnapshotCorrupt, err)
	}
	e, err := LoadEngine(bytes.NewReader(s.Rebase.Session), l, opts...)
	if err != nil {
		return nil, err
	}
	// Replay with journaling detached: the records being re-applied are
	// already durable, and re-appending them would double the log.
	jrnlPath := e.cfg.jrnlPath
	e.cfg.jrnlPath = ""
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
		if h := e.layoutHash(); h != rec.PostHash {
			return nil, fmt.Errorf("%w: journal replay diverged at record %d: layout fingerprints %016x, record expects %016x",
				ErrSnapshotCorrupt, rec.Seq, h, rec.PostHash)
		}
	}
	e.cfg.jrnlPath = jrnlPath
	if e.cfg.jrnlPath == "" {
		e.cfg.jrnlPath = path
	}
	jr, err := journal.OpenAppend(path, s)
	if err != nil {
		return nil, err
	}
	jr.SetCompaction(e.cfg.jrnlRecords, e.cfg.jrnlBytes)
	e.jr = jr
	return e, nil
}

// JournalHeader peeks at a journal's identity — the fingerprint and pitch
// of the layout the session was created over — without replaying it. A
// recovery ladder uses it to match journals to sessions before paying the
// replay cost.
func JournalHeader(path string) (layoutHash uint64, pitch int64, err error) {
	s, err := journal.ScanFile(path)
	if err != nil {
		return 0, 0, err
	}
	return s.Header.LayoutHash, s.Header.Pitch, nil
}

// saveLocked is Save without the lock acquisition, for callers already
// holding mu in either mode (Commit holds it exclusively when folding the
// journal; RWMutex is not reentrant).
func (e *Engine) saveLocked(w io.Writer) error {
	sess := &snapshot.Session{
		LayoutHash: e.layoutHash(),
		Pitch:      e.cfg.congest.Pitch,
		Passages:   e.passages,
	}
	if e.cur != nil {
		sess.Routed = true
		sess.Nets = e.cur.Nets
		sess.History = e.history
	}
	return snapshot.EncodeSession(w, sess)
}
