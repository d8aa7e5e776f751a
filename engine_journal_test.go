package genroute

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

// journaledEngine builds a routed session over gridScene(n) with the ECO
// journal at a temp path, returning both. Recovery presents gridScene(n)
// again as the creation layout.
func journaledEngine(t testing.TB, n int, extra ...Option) (*Engine, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eco.jrnl")
	opts := append([]Option{WithPitch(1), WithWorkers(1), WithJournalFile(path)}, extra...)
	e, err := NewEngine(gridScene(t, n), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e, path
}

// commitOps stages and commits one edit set, failing the test on error.
func commitOps(t testing.TB, e *Engine, stage func(tx *Edit) error) {
	t.Helper()
	tx := e.Edit()
	if err := stage(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// withJournalCompaction overrides the journal fold thresholds: fold after
// records edit records or bytes journal bytes, whichever comes first (0
// keeps the default for that axis).
func withJournalCompaction(records int, bytes int64) Option {
	return func(c *config) {
		c.jrnlRecords = records
		c.jrnlBytes = bytes
	}
}

// checkRecovered asserts a journal-recovered session matches the live one:
// byte-identical routes, same layout fingerprint, consistent state, and
// still editable (the recovered journal accepts further commits). created
// is the layout the live session was created over.
func checkRecovered(t *testing.T, live *Engine, path string, created *Layout) {
	t.Helper()
	rec, err := LoadEngineJournal(path, created, WithWorkers(1))
	if err != nil {
		t.Fatalf("LoadEngineJournal: %v", err)
	}
	if got, want := fingerprint(t, rec), fingerprint(t, live); got != want {
		t.Fatalf("recovered layout fingerprint %016x, live %016x", got, want)
	}
	checkSameRoutes(t, rec.Result(), live.Result())
	checkEngineConsistency(t, rec)
	// The recovered session is live: a further edit commits and journals.
	commitOps(t, rec, func(tx *Edit) error {
		return tx.AddNet(padNet("post_recovery", 3, rec.Layout().Bounds.MaxX))
	})
	if st, ok := rec.JournalStats(); !ok || st.Records == 0 {
		t.Fatalf("recovered session did not journal its next commit: %+v ok=%v", st, ok)
	}
}

// TestJournalReplayEqualsLive is the core recovery property: after a
// sequence of committed edits (adds, removes, cell moves), rebuilding the
// session from the journal alone reproduces the live session's routes
// byte-identically.
func TestJournalReplayEqualsLive(t *testing.T) {
	e, path := journaledEngine(t, 3)
	maxX := e.Layout().Bounds.MaxX

	commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("j_a", 5, maxX)) })
	commitOps(t, e, func(tx *Edit) error {
		if err := tx.AddNet(padNet("j_b", 9, maxX)); err != nil {
			return err
		}
		return tx.RemoveNet(e.Layout().Nets[0].Name)
	})
	commitOps(t, e, func(tx *Edit) error {
		return tx.MoveCell(e.Layout().Cells[0].Name, 2, 1)
	})
	commitOps(t, e, func(tx *Edit) error { return tx.RemoveNet("j_a") })

	if st, ok := e.JournalStats(); !ok || st.Records != 4 {
		t.Fatalf("journal stats = %+v ok=%v, want 4 records", st, ok)
	}
	checkRecovered(t, e, path, gridScene(t, 3))
}

// TestJournalBaseCarriesLayoutOnlyOnceEdited: a base written while the
// layout still fingerprints to the journal header carries no layout — the
// creation layout that recovery is handed is the layout — and a base that
// compaction folds after an edit carries the edited layout.
func TestJournalBaseCarriesLayoutOnlyOnceEdited(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eco.jrnl")
	e, err := NewEngine(funnelLayout(8), persistOpts(WithJournalFile(path), withJournalCompaction(1, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, err := journal.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rebase.LayoutJSON) != 0 {
		t.Fatalf("base of an unedited session embeds %d bytes of layout, want none", len(s.Rebase.LayoutJSON))
	}

	commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("eco", 80, 400)) })
	if s, err = journal.ScanFile(path); err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != 0 {
		t.Fatalf("compaction left %d records, want the commit folded", len(s.Records))
	}
	l, err := ReadLayout(bytes.NewReader(s.Rebase.LayoutJSON))
	if err != nil {
		t.Fatalf("folded base layout: %v", err)
	}
	if got, want := snapshot.LayoutHash(l), fingerprint(t, e); got != want {
		t.Fatalf("folded base layout fingerprints %016x, edited session %016x", got, want)
	}
	checkRecovered(t, e, path, funnelLayout(8))
}

// TestLoadEngineJournalRejectsOtherLayout: a journal recovers only over the
// layout it was created over, before and after its base embeds an edited
// layout of its own.
func TestLoadEngineJournalRejectsOtherLayout(t *testing.T) {
	e, path := journaledEngine(t, 3, withJournalCompaction(1, 0))
	other := gridScene(t, 2)
	if _, err := LoadEngineJournal(path, other, WithWorkers(1)); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("recovery over another layout: err = %v, want ErrSnapshotLayout", err)
	}
	commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("j_a", 5, e.Layout().Bounds.MaxX)) })
	if _, err := LoadEngineJournal(path, other, WithWorkers(1)); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("recovery of a folded base over another layout: err = %v, want ErrSnapshotLayout", err)
	}
}

// embeddedLayoutJournal writes a journal whose base embeds layout as JSON
// next to e's session payload, as every base did before unedited layouts
// were left out, and returns its path.
func embeddedLayoutJournal(t *testing.T, e *Engine, layout *Layout) string {
	t.Helper()
	lj, err := json.Marshal(layout)
	if err != nil {
		t.Fatal(err)
	}
	var sess *snapshot.Session
	withWriter(t, e, func(w *writer) { sess = e.session(w) })
	return writeBase(t, e.Layout(), e.Pitch(), journal.Rebase{LayoutJSON: lj, Session: snapshot.EncodeSession(sess)})
}

// TestJournalEmbeddedLayoutBaseRecovers: a base that embeds the unchanged
// layout is decoded and validated, and recovers the session's routes
// byte-identically; edit records appended after it replay as usual.
func TestJournalEmbeddedLayoutBaseRecovers(t *testing.T) {
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := embeddedLayoutJournal(t, e, e.Layout())
	rec, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatalf("LoadEngineJournal: %v", err)
	}
	checkSameRoutes(t, rec.Result(), e.Result())
	checkEngineConsistency(t, rec)

	addNet := func(tx *Edit) error { return tx.AddNet(padNet("eco", 80, 400)) }
	commitOps(t, e, addNet)
	commitOps(t, rec, addNet)
	again, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatalf("LoadEngineJournal after an appended record: %v", err)
	}
	checkSameRoutes(t, again.Result(), e.Result())
}

// TestJournalInvalidEmbeddedLayoutFailsClosed: a checksummed base whose
// embedded layout fails Validate is corruption, not a session.
func TestJournalInvalidEmbeddedLayoutFailsClosed(t *testing.T) {
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	bad := funnelLayout(8)
	bad.Cells[1].Box = R(190, 50, 210, 150) // overlaps the lower cell
	path := embeddedLayoutJournal(t, e, bad)
	if _, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("base with overlapping cells: err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestJournalReplayAfterCompaction drives enough commits through a tight
// fold threshold that the journal rebases mid-history: recovery then
// starts from the folded base rather than the creation state, and must
// still land byte-identical to the live session.
func TestJournalReplayAfterCompaction(t *testing.T) {
	e, path := journaledEngine(t, 3, withJournalCompaction(2, 0))
	maxX := e.Layout().Bounds.MaxX
	for i := 0; i < 5; i++ {
		y := int64(3 + 2*i)
		commitOps(t, e, func(tx *Edit) error {
			return tx.AddNet(padNet(fmt.Sprintf("fold%d", i), y, maxX))
		})
	}
	st, ok := e.JournalStats()
	if !ok {
		t.Fatal("no journal stats")
	}
	if st.Records >= 5 {
		t.Fatalf("journal never compacted: %d records", st.Records)
	}
	s, err := journal.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records) != st.Records {
		t.Fatalf("on-disk records %d, stats say %d", len(s.Records), st.Records)
	}
	checkRecovered(t, e, path, gridScene(t, 3))
}

// TestJournalFoldsWholeLayoutFlows: RouteAll, RouteNegotiated and a
// resumed RouteNegotiated install routes no journal record describes, so a
// session that already journals ECO edits must fold its journal into a
// fresh base when one of them runs. Otherwise recovery replays the records
// onto the old base and revives routes the live session has replaced. Each
// case journals one edit on the congested funnel, runs the flow so the live
// routes change, and recovers from the journal alone.
func TestJournalFoldsWholeLayoutFlows(t *testing.T) {
	addNet := func(tx *Edit) error { return tx.AddNet(padNet("eco", 80, 400)) }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"RouteAll", func(t *testing.T, e *Engine) {
			if _, err := e.RouteNegotiated(context.Background()); err != nil {
				t.Fatal(err)
			}
			commitOps(t, e, addNet)
			if _, err := e.RouteAll(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
		{"RouteNegotiated", func(t *testing.T, e *Engine) {
			if _, err := e.RouteAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			commitOps(t, e, addNet)
			if _, err := e.RouteNegotiated(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
		{"ResumeNegotiated", func(t *testing.T, e *Engine) {
			if _, err := e.RouteAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			commitOps(t, e, addNet)
			// Interrupt a negotiation after pass 2, then let the next
			// RouteNegotiated continue it from its last checkpoint.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e.cfg.progress = func(p Progress) {
				if p.Pass == 2 {
					cancel()
				}
			}
			if _, err := e.RouteNegotiated(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			e.cfg.progress = nil
			interrupted := e.Result()
			res, err := e.RouteNegotiated(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.PassesBefore == 0 {
				t.Fatal("RouteNegotiated ran fresh; the case needs a resumed run")
			}
			if routesEqual(e.Result(), interrupted) {
				t.Fatal("resuming left the interrupted routes in place; the case checks nothing")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "eco.jrnl")
			e, err := NewEngine(funnelLayout(8), persistOpts(WithJournalFile(path), WithCheckpointEvery(1))...)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, e)
			checkRecovered(t, e, path, funnelLayout(8))
		})
	}
}

// TestJournalFoldErrorReachesCaller: when the fold after a whole-layout
// flow fails, the flow still installs its routes but returns the error, so
// the caller knows the journal no longer describes the session. The journal
// stays stale until a fold succeeds: a commit that cannot fold first is
// refused, and the first one that can makes recovery match the live
// session again.
func TestJournalFoldErrorReachesCaller(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eco.jrnl")
	e, err := NewEngine(funnelLayout(8), persistOpts(WithJournalFile(path))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("eco", 80, 400)) })
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.JournalCompact {
			return faultinject.Error
		}
		return faultinject.None
	})
	defer restore()
	res, err := e.RouteAll(context.Background())
	if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, ErrJournalFold) {
		t.Fatalf("RouteAll with a failing fold: err = %v, want the injected fault as ErrJournalFold", err)
	}
	if res == nil || e.Result() != res {
		t.Fatal("a failed fold must still install the new routes")
	}
	nres, err := e.RouteNegotiated(context.Background())
	if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, ErrJournalFold) {
		t.Fatalf("RouteNegotiated with a failing fold: err = %v, want the injected fault as ErrJournalFold", err)
	}
	if nres == nil || e.Result() != nres.Results[len(nres.Results)-1] {
		t.Fatal("a failed fold must still install the negotiated routes")
	}
	if st, _ := e.JournalStats(); st.LastErr == "" {
		t.Fatalf("journal stats hide the failed fold: %+v", st)
	}

	tx := e.Edit()
	if err := tx.AddNet(padNet("eco2", 120, 400)); err != nil {
		t.Fatal(err)
	}
	before := e.Result()
	if _, err := tx.Commit(context.Background()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("commit onto a stale journal whose fold fails: err = %v, want the injected fault", err)
	}
	if e.Result() != before {
		t.Fatal("a refused commit changed the session")
	}

	restore()
	commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("eco2", 120, 400)) })
	if st, _ := e.JournalStats(); st.LastErr != "" || st.Records != 1 {
		t.Fatalf("journal after the catch-up fold = %+v, want one healthy record", st)
	}
	checkRecovered(t, e, path, funnelLayout(8))
}

// TestJournalReplayEqualsLiveRandomized drives random edit scripts —
// mirroring TestECORandomizedEquivalence, with cell moves added — and
// checks the recovery property after every commit, with and without
// compaction pressure.
func TestJournalReplayEqualsLiveRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized replay property skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var opts []Option
			if seed%2 == 0 {
				opts = append(opts, withJournalCompaction(3, 0))
			}
			e, path := journaledEngine(t, 3, opts...)
			maxX := e.Layout().Bounds.MaxX
			added := 0
			for step := 0; step < 4; step++ {
				tx := e.Edit()
				for k, ops := 0, r.Intn(3)+1; k < ops; k++ {
					switch r.Intn(3) {
					case 0:
						added++
						if err := tx.AddNet(padNet(fmt.Sprintf("rnd%d", added), int64(3+r.Intn(18)), maxX)); err != nil {
							t.Fatal(err)
						}
					case 1:
						nets := e.Layout().Nets
						name := nets[r.Intn(len(nets))].Name
						if tx.netExists(name) {
							if err := tx.RemoveNet(name); err != nil {
								t.Fatal(err)
							}
						}
					case 2:
						cells := e.Layout().Cells
						name := cells[r.Intn(len(cells))].Name
						if err := tx.MoveCell(name, int64(r.Intn(5)-2), int64(r.Intn(5)-2)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if tx.Len() == 0 {
					continue
				}
				if _, err := tx.Commit(context.Background()); err != nil {
					// Geometric rejection leaves both the engine and the
					// journal untouched; the property must still hold.
					continue
				}
				rec, err := LoadEngineJournal(path, gridScene(t, 3), WithWorkers(1))
				if err != nil {
					t.Fatalf("step %d: LoadEngineJournal: %v", step, err)
				}
				checkSameRoutes(t, rec.Result(), e.Result())
			}
		})
	}
}

// TestJournalKillAnywhere is the chaos harness: for every journal fault
// seam, and for every firing of that seam across an edit burst, inject a
// failure and then recover the session from disk.
//
// The property, per the WAL contract: no acknowledged edit may be lost,
// and the journal must never be poisoned. A failed commit is not
// acknowledged and leaves the live engine untouched, so the recovered
// session must match the live burst engine byte-identically — except in
// one documented case: a fault between an append's write and its
// acknowledgment can leave the record durable on disk with no later
// append to roll it back (only possible for the burst's final record).
// Replay then applies that unacknowledged edit — acked+1, the standard
// WAL outcome — and recovery must land exactly on the state the failed
// commit would have installed.
func TestJournalKillAnywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	seams := []faultinject.Point{
		faultinject.JournalAppend,
		faultinject.JournalSync,
		faultinject.JournalRename,
		faultinject.JournalCompact,
		faultinject.JournalApply,
	}
	for _, seam := range seams {
		seam := seam
		t.Run(seam.String(), func(t *testing.T) {
			// First pass: count how often the seam fires (for JournalApply,
			// during a recovery of the clean burst's journal).
			fires := countSeamFires(t, seam)
			if fires == 0 && (seam == faultinject.JournalAppend || seam == faultinject.JournalApply) {
				t.Fatalf("burst never hit the %v seam", seam)
			}
			for idx := 0; idx < fires; idx++ {
				idx := idx
				t.Run(fmt.Sprintf("fire%d", idx), func(t *testing.T) {
					if seam == faultinject.JournalApply {
						runKillAnywhereReplay(t, idx)
					} else {
						runKillAnywhereBurst(t, seam, idx)
					}
				})
			}
		})
	}
}

// chaosBurst drives a fixed 6-commit edit burst (adds, removes, a move)
// over a journaled session, ignoring commit errors — an injected fault
// fails that commit, and the burst carries on, exactly like a client
// whose request errored against a daemon with a hiccuping disk. It
// returns the stage closure of the last commit that failed with no
// successful commit after it (nil if none): the only candidate for a
// durable-but-unacknowledged journal record.
func chaosBurst(t testing.TB, e *Engine) (trailingFailed func(tx *Edit) error) {
	t.Helper()
	maxX := e.Layout().Bounds.MaxX
	step := func(stage func(tx *Edit) error) {
		tx := e.Edit()
		if err := stage(tx); err != nil {
			return // staging against a state an earlier failed commit left
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			trailingFailed = stage
		} else {
			trailingFailed = nil
		}
	}
	step(func(tx *Edit) error { return tx.AddNet(padNet("c_a", 5, maxX)) })
	step(func(tx *Edit) error { return tx.AddNet(padNet("c_b", 9, maxX)) })
	step(func(tx *Edit) error { return tx.RemoveNet("c_a") })
	step(func(tx *Edit) error { return tx.MoveCell(e.Layout().Cells[0].Name, 1, 2) })
	step(func(tx *Edit) error { return tx.AddNet(padNet("c_c", 13, maxX)) })
	step(func(tx *Edit) error { return tx.RemoveNet(e.Layout().Nets[0].Name) })
	return trailingFailed
}

// routesEqual is checkSameRoutes as a predicate.
func routesEqual(got, want *Result) bool {
	if len(got.Nets) != len(want.Nets) || got.TotalLength != want.TotalLength {
		return false
	}
	g, w := routesByName(got), routesByName(want)
	for name, ws := range w {
		if !sameSegs(g[name], ws) {
			return false
		}
	}
	return true
}

// countSeamFires runs the burst (and, for the replay seam, a recovery)
// with a counting hook and reports how many times the seam fired.
func countSeamFires(t *testing.T, seam faultinject.Point) int {
	// The write-side sweeps run under a tight fold threshold to hit the
	// compaction seams; the replay sweep keeps the default so the burst's
	// records survive to be re-applied (a tight fold would leave zero).
	var opts []Option
	if seam != faultinject.JournalApply {
		opts = append(opts, withJournalCompaction(2, 0))
	}
	e, path := journaledEngine(t, 2, opts...)
	n := 0
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == seam {
			n++
		}
		return faultinject.None
	})
	defer restore()
	chaosBurst(t, e)
	if seam == faultinject.JournalApply {
		if err := e.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngineJournal(path, gridScene(t, 2), WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// runKillAnywhereBurst injects an error at the idx-th firing of seam
// during the burst, then recovers from the journal and asserts the
// kill-anywhere property.
func runKillAnywhereBurst(t *testing.T, seam faultinject.Point, idx int) {
	e, path := journaledEngine(t, 2, withJournalCompaction(2, 0))
	n := 0
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == seam {
			n++
			if n-1 == idx {
				return faultinject.Error
			}
		}
		return faultinject.None
	})
	trailingFailed := chaosBurst(t, e)
	restore()
	// Recover beside the live engine, as after a kill: its journal stays
	// open, and the reconverging commit below appends to it.
	rec, err := LoadEngineJournal(path, gridScene(t, 2), WithWorkers(1))
	if err != nil {
		t.Fatalf("recovery after %v fault #%d: %v", seam, idx, err)
	}
	checkEngineConsistency(t, rec)
	if routesEqual(rec.Result(), e.Result()) {
		return
	}
	// The one blessed divergence: the burst's trailing failed commit left
	// a durable-but-unacknowledged record that replay applied. Committing
	// that same edit on the live engine must reconverge the two.
	if trailingFailed == nil {
		t.Fatalf("recovered state diverges from live with no trailing failed commit (%v fault #%d)", seam, idx)
	}
	commitOps(t, e, trailingFailed)
	checkSameRoutes(t, rec.Result(), e.Result())
	if got, want := fingerprint(t, rec), fingerprint(t, e); got != want {
		t.Fatalf("recovered fingerprint %016x, live %016x", got, want)
	}
}

// runKillAnywhereReplay injects an error at the idx-th record application
// during recovery: the recovery must fail closed (no half-replayed
// session), and a clean retry must then recover the full state.
func runKillAnywhereReplay(t *testing.T, idx int) {
	e, path := journaledEngine(t, 2)
	if failed := chaosBurst(t, e); failed != nil {
		t.Fatal("clean burst had a failed commit")
	}
	if err := e.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	n := 0
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.JournalApply {
			n++
			if n-1 == idx {
				return faultinject.Error
			}
		}
		return faultinject.None
	})
	_, err := LoadEngineJournal(path, gridScene(t, 2), WithWorkers(1))
	restore()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("replay under apply fault #%d = %v, want injected error", idx, err)
	}
	rec, err := LoadEngineJournal(path, gridScene(t, 2), WithWorkers(1))
	if err != nil {
		t.Fatalf("clean retry after apply fault: %v", err)
	}
	checkSameRoutes(t, rec.Result(), e.Result())
	checkEngineConsistency(t, rec)
}

// TestJournalTornTailRecovery scribbles a torn tail onto a live journal
// (as a crash mid-append would) and checks recovery tolerates it: every
// acknowledged record survives, the tail is truncated, and the recovered
// session keeps accepting edits.
func TestJournalTornTailRecovery(t *testing.T) {
	e, path := journaledEngine(t, 2)
	maxX := e.Layout().Bounds.MaxX
	commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("t_a", 5, maxX)) })
	commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("t_b", 9, maxX)) })
	if err := e.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: half a frame of garbage after the last record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("GRJRNL\x01\x00torn")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := LoadEngineJournal(path, gridScene(t, 2), WithWorkers(1))
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	checkSameRoutes(t, rec.Result(), e.Result())
	// The torn bytes are gone and the journal continues cleanly.
	commitOps(t, rec, func(tx *Edit) error { return tx.AddNet(padNet("t_c", 13, maxX)) })
	s, err := journal.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Torn || len(s.Records) != 3 {
		t.Fatalf("after torn-tail recovery + commit: torn=%v records=%d", s.Torn, len(s.Records))
	}
}

// TestJournaledCommitKeepsLayoutHash: a journaled commit fingerprints the
// edited layout for its record, and the install keeps that fingerprint as
// the session's memo, so the next fold or checkpoint does not hash
// the same layout again. Without a journal no fingerprint is taken and the
// memo stays empty until one is needed.
func TestJournaledCommitKeepsLayoutHash(t *testing.T) {
	e, _ := journaledEngine(t, 3)
	commitOps(t, e, func(tx *Edit) error {
		return tx.AddNet(padNet("hash_a", 5, e.Layout().Bounds.MaxX))
	})
	var memo uint64
	withWriter(t, e, func(w *writer) { memo = w.lhash })
	if got, want := memo, snapshot.LayoutHash(e.Layout()); got != want {
		t.Fatalf("layout fingerprint memo after a journaled commit = %016x, want %016x", got, want)
	}

	plain, err := NewEngine(gridScene(t, 3), WithPitch(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	commitOps(t, plain, func(tx *Edit) error {
		return tx.AddNet(padNet("hash_b", 5, plain.Layout().Bounds.MaxX))
	})
	withWriter(t, plain, func(w *writer) { memo = w.lhash })
	if h := memo; h != 0 {
		t.Fatalf("unjournaled commit memoized a layout fingerprint %016x", h)
	}
}

// romTap is a net with a pin on demoLayout's rom cell at (260,60) and a
// pad east of it: committed together with MoveCell("rom", 4, 0), its rom
// pin rides with the cell to (264,60).
func romTap() Net {
	return Net{Name: "tap", Terminals: []Terminal{
		{Name: "rom", Pins: []Pin{{Name: "p", Pos: Pt(260, 60), Cell: 1}}},
		{Name: "pad", Pins: []Pin{{Name: "p", Pos: Pt(300, 60), Cell: NoCell}}},
	}}
}

// journaledDemo builds a routed demoLayout session with the ECO journal at a
// temp path.
func journaledDemo(t *testing.T) (*Engine, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eco.jrnl")
	e, err := NewEngine(demoLayout(), WithWorkers(1), WithJournalFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e, path
}

// TestJournalAddNetOnMovedCell: an edit that adds a net on a cell and moves
// that cell journals the added pins as they were staged, so replay
// translates them once, as the live commit did.
func TestJournalAddNetOnMovedCell(t *testing.T) {
	e, path := journaledDemo(t)
	commitOps(t, e, func(tx *Edit) error {
		if err := tx.AddNet(romTap()); err != nil {
			return err
		}
		return tx.MoveCell("rom", 4, 0)
	})
	if got := e.Layout().Nets[len(e.Layout().Nets)-1].Terminals[0].Pins[0].Pos; got != Pt(264, 60) {
		t.Fatalf("committed rom pin at %v, want (264,60)", got)
	}
	checkRecovered(t, e, path, demoLayout())
}

// TestJournalStaleRemoveNetRejected: two transactions staged against the
// same layout both remove one net. The second commit finds it gone and
// fails, leaving the engine and the journal as the first commit left them,
// so recovery still converges to the live session.
func TestJournalStaleRemoveNetRejected(t *testing.T) {
	e, path := journaledDemo(t)
	tx1, tx2 := e.Edit(), e.Edit()
	for _, tx := range []*Edit{tx1, tx2} {
		if err := tx.RemoveNet("bus"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx1.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := e.Result()
	if _, err := tx2.Commit(context.Background()); err == nil {
		t.Fatal("a commit removing an already removed net succeeded")
	}
	if e.Result() != before {
		t.Fatal("the rejected commit installed a new state")
	}
	if st, ok := e.JournalStats(); !ok || st.Records != 1 {
		t.Fatalf("journal stats = %+v ok=%v, want 1 record", st, ok)
	}
	checkRecovered(t, e, path, demoLayout())
}

// TestJournalUnjournaledEngineHasNoJournal: without WithJournalFile, ECO
// commits write nothing and JournalStats reports absence.
func TestJournalUnjournaledEngineHasNoJournal(t *testing.T) {
	e, err := NewEngine(gridScene(t, 2), WithPitch(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	commitOps(t, e, func(tx *Edit) error {
		return tx.AddNet(padNet("nj", 5, e.Layout().Bounds.MaxX))
	})
	if _, ok := e.JournalStats(); ok {
		t.Fatal("unjournaled engine reports journal stats")
	}
}

// FuzzJournalReplay feeds arbitrary bytes to the full recovery path:
// LoadEngineJournal must return a working session or a typed/classifiable
// error — never panic, never a silently wrong session (the per-record
// fingerprint check is what turns "wrong" into an error).
func FuzzJournalReplay(f *testing.F) {
	// Seed with a genuine journal plus damaged variants.
	dir, err := os.MkdirTemp("", "jrnlfuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.jrnl")
	created := gridScene(f, 2)
	e, err := NewEngine(created, WithPitch(1), WithWorkers(1), WithJournalFile(path))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		f.Fatal(err)
	}
	maxX := e.Layout().Bounds.MaxX
	for i := 0; i < 2; i++ {
		tx := e.Edit()
		if err := tx.AddNet(padNet(fmt.Sprintf("s%d", i), int64(5+4*i), maxX)); err != nil {
			f.Fatal(err)
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			f.Fatal(err)
		}
	}
	if err := e.CloseJournal(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5]) // torn tail
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x20 // bit flip
	f.Add(flip)
	skew := append([]byte(nil), good...)
	skew[6] = 0x7e // version skew in the first frame
	f.Add(skew)
	f.Add([]byte{})
	f.Add([]byte("GRJRNL"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.jrnl")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := LoadEngineJournal(p, created, WithWorkers(1))
		if err != nil {
			for _, typed := range []error{ErrSnapshotFormat, ErrSnapshotVersion,
				ErrSnapshotCorrupt, ErrSnapshotLayout} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("replay error %v is not typed", err)
		}
		// A successful recovery must be a consistent session.
		checkEngineConsistency(t, rec)
	})
}
