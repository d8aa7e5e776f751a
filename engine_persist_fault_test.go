package genroute

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
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

// TestCheckpointWriteFailureLeavesNoTempFiles: a checkpoint write that
// fails mid-stream must surface the error, leave no *.tmp-* litter, and
// keep the previous checkpoint file byte-intact.
func TestCheckpointWriteFailureLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	l := funnelLayout(6)

	// First, a healthy run writes a valid checkpoint.
	e, err := NewEngine(l, append(persistOpts(), WithCheckpointFile(path, 1))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("healthy run wrote no checkpoint: %v", err)
	}

	// Now fail the second write of the next checkpoint attempt (header
	// lands, payload does not — a mid-stream failure, not an open error).
	restore := failSnapshotWrites(path, 1)
	defer restore()
	e2, err := NewEngine(l, append(persistOpts(), WithCheckpointFile(path, 1))...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e2.RouteNegotiated(context.Background())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("negotiation error = %v, want injected write failure", err)
	}
	if litter := tmpLitter(t, path); len(litter) != 0 {
		t.Fatalf("failed checkpoint write left temp files behind: %v", litter)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint gone after failed write: %v", err)
	}
	if string(got) != string(prev) {
		t.Fatal("failed checkpoint write corrupted the previous checkpoint")
	}
}

// TestCheckpointWritePanicLeavesNoTempFiles: even a panic inside the
// encode (the one path the old writer's error plumbing could not clean
// up) removes the temp file on the way out.
func TestCheckpointWritePanicLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.SnapshotWrite && s.Label == path {
			return faultinject.Panic
		}
		return faultinject.None
	})
	defer restore()

	e, err := NewEngine(funnelLayout(6), append(persistOpts(), WithCheckpointFile(path, 1))...)
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("panicking checkpoint write left temp files behind: %v", litter)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("no checkpoint should exist after a failed first write, stat: %v", err)
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
