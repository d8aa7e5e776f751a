package genroute

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// failSnapshotWrites injects an error on the Nth write to the given
// destination path (0 fails the first write).
func failSnapshotWrites(path string, after int) (restore func()) {
	n := 0
	return faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.SnapshotWrite && s.Label == path {
			if n++; n > after {
				return faultinject.Error
			}
		}
		return faultinject.None
	})
}

// tmpLitter lists leftover atomic-writer temp files next to path.
func tmpLitter(t *testing.T, path string) []string {
	t.Helper()
	m, err := filepath.Glob(path + ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCheckpointWriteFailureLeavesNoTempFiles: a checkpoint whose journal
// fold fails mid-write must surface the error, leave no *.tmp-* litter and
// keep the previous journal byte-intact, and the engine's negotiation in
// flight must still be the one that journal holds.
func TestCheckpointWriteFailureLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jrnl")
	e, err := NewEngine(funnelLayout(6), persistOpts(WithJournalFile(path), WithCheckpointEvery(1))...)
	if err != nil {
		t.Fatal(err)
	}

	// The first checkpoint (pass 1's boundary) folds; the second fails on
	// its write, once its temp file exists. The journal that first fold
	// left is read just before the failure.
	var prev []byte
	writes := 0
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point != faultinject.SnapshotWrite || s.Label != path {
			return faultinject.None
		}
		if writes++; writes < 2 {
			return faultinject.None
		}
		if prev == nil {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			prev = b
		}
		return faultinject.Error
	})
	defer restore()
	_, err = e.RouteNegotiated(context.Background())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("negotiation error = %v, want injected write failure", err)
	}
	if litter := tmpLitter(t, path); len(litter) != 0 {
		t.Fatalf("failed checkpoint fold left temp files behind: %v", litter)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("journal gone after a failed checkpoint fold: %v", err)
	}
	if prev == nil || !bytes.Equal(got, prev) {
		t.Fatal("failed checkpoint fold corrupted the previous journal")
	}
	withWriter(t, e, func(w *writer) {
		if w.pending == nil || w.pending.Pass != nil || w.pending.PassesRecorded != 1 {
			t.Fatalf("negotiation in flight %+v, want pass 1's boundary, the checkpoint the journal holds", w.pending)
		}
		rb, err := e.journalRebase(w, w.jr.Header().LayoutHash)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(journal.EncodeBase(w.jr.Header(), rb), got) {
			t.Fatal("the engine's state no longer matches its journal")
		}
	})
}

// TestCheckpointWritePanicLeavesNoTempFiles: even a panic inside the
// checkpoint fold's write (the one path the old writer's error plumbing
// could not clean up) removes the temp file on the way out, leaves the
// journal written at construction byte-intact, and leaves no negotiation
// in flight that the journal does not hold.
func TestCheckpointWritePanicLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jrnl")
	e, err := NewEngine(funnelLayout(6), persistOpts(WithJournalFile(path), WithCheckpointEvery(1))...)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.SnapshotWrite && s.Label == path {
			return faultinject.Panic
		}
		return faultinject.None
	})
	defer restore()

	func() {
		defer func() {
			v := recover()
			if v == nil || !strings.Contains(v.(string), "injected panic") {
				t.Fatalf("recover() = %v, want the injected panic", v)
			}
		}()
		e.RouteNegotiated(context.Background())
	}()
	if litter := tmpLitter(t, path); len(litter) != 0 {
		t.Fatalf("panicking checkpoint fold left temp files behind: %v", litter)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("panicking checkpoint fold changed the journal (read err %v)", err)
	}
	withWriter(t, e, func(w *writer) {
		if w.pending != nil {
			t.Fatal("the engine keeps a negotiation in flight its journal does not hold")
		}
	})
}

// TestJournalBaseWriteFailureLeavesNoTempFiles: the journal base written
// at construction shares the atomic writer and the same no-litter
// guarantee. A failed write fails NewEngine with ErrJournalAppend.
func TestJournalBaseWriteFailureLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sess.jrnl")
	restore := failSnapshotWrites(path, 0)
	defer restore()
	_, err := NewEngine(funnelLayout(6), persistOpts(WithJournalFile(path))...)
	if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, ErrJournalAppend) {
		t.Fatalf("NewEngine error = %v, want the injected write failure as ErrJournalAppend", err)
	}
	if litter := tmpLitter(t, path); len(litter) != 0 {
		t.Fatalf("failed base write left temp files behind: %v", litter)
	}
	restore()
	if _, err := NewEngine(funnelLayout(6), persistOpts(WithJournalFile(path))...); err != nil {
		t.Fatalf("NewEngine after restore: %v", err)
	}
	if _, err := LoadEngineJournal(path, funnelLayout(6), persistOpts()...); err != nil {
		t.Fatalf("round-trip through the journal base: %v", err)
	}
}

// TestCancelledPassFailedCheckpointStillInterrupts: when a checkpoint fold
// fails on a cancelled pass's way out — the checkpoint the pass delivers
// once cancelled, or a mid-pass one whose fold the cancellation overtook —
// the run still reports the interruption next to the failure, records the
// partial pass and installs the best pass, which the fold after the flow
// makes durable. The last checkpoint that folded stays the negotiation in
// flight, so the session recovered from the journal continues from it to
// the routes of an uninterrupted run.
func TestCancelledPassFailedCheckpointStillInterrupts(t *testing.T) {
	ref, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// duringFold cancels inside the fold of the checkpoint after the
		// second reroute; otherwise the third reroute cancels. Pass 1
		// routes without rip-up, so both land in pass 2.
		duringFold bool
	}{{"final-checkpoint", false}, {"mid-pass-checkpoint", true}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jrnl")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			passes, cancelledIn := 0, 0
			e, err := NewEngine(funnelLayout(8), persistOpts(
				WithJournalFile(path),
				WithCheckpointEvery(1),
				WithProgress(func(p Progress) { passes = p.Pass }))...)
			if err != nil {
				t.Fatal(err)
			}
			// The first journal fold once cancelled fails.
			reroutes, failed := 0, false
			restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
				switch s.Point {
				case faultinject.Reroute:
					if reroutes++; !tc.duringFold && reroutes == 3 {
						cancelledIn = passes + 1
						cancel()
					}
				case faultinject.JournalCompact:
					if tc.duringFold && reroutes == 2 && ctx.Err() == nil {
						cancelledIn = passes + 1
						cancel()
					}
					if ctx.Err() != nil && !failed {
						failed = true
						return faultinject.Error
					}
				}
				return faultinject.None
			})
			res, err := e.RouteNegotiated(ctx)
			restore()
			if !errors.Is(err, context.Canceled) || !errors.Is(err, faultinject.ErrInjected) || errors.Is(err, ErrJournalFold) {
				t.Fatalf("err = %v, want the cancellation joined with the failed checkpoint, and the fold after the flow landed", err)
			}
			if !failed || cancelledIn < 2 {
				t.Fatalf("cancelled in pass %d, failed fold %v: the fixture must cancel a rip-up pass and fail a checkpoint", cancelledIn, failed)
			}
			if res == nil || len(res.Passes) != cancelledIn {
				t.Fatalf("result %+v, want %d passes, the partial one included", res, cancelledIn)
			}
			if err := e.CloseJournal(); err != nil {
				t.Fatal(err)
			}

			rec, err := LoadEngineJournal(path, funnelLayout(8), persistOpts(WithCheckpointEvery(1))...)
			if err != nil {
				t.Fatal(err)
			}
			checkSameRoutes(t, rec.Result(), e.Result())
			got, err := rec.RouteNegotiated(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got.PassesBefore < 1 || got.PassesBefore+len(got.Passes) != len(refRes.Passes) {
				t.Fatalf("recovered run: %d passes before + %d resumed, uninterrupted run took %d",
					got.PassesBefore, len(got.Passes), len(refRes.Passes))
			}
			checkSameRoutes(t, rec.Result(), ref.Result())
			checkEngineConsistency(t, rec)
		})
	}
}
