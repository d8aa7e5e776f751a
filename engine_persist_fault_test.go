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
	if e.pending == nil || e.pending.InPass || e.pending.PassesRecorded != 1 {
		t.Fatalf("negotiation in flight %+v, want pass 1's boundary, the checkpoint the journal holds", e.pending)
	}
	rb, err := e.journalRebase(e.jr.Header().LayoutHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal.EncodeBase(e.jr.Header(), rb), got) {
		t.Fatal("the engine's state no longer matches its journal")
	}
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
	if e.pending != nil {
		t.Fatal("the engine keeps a negotiation in flight its journal does not hold")
	}
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
