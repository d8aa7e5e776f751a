package genroute

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/snapshot"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden journal files under testdata")

// checkGolden compares a journal image with testdata/<name>. The golden
// files pin the bytes on disk: a journal written by one build must recover
// in the next, so any change here needs a journal.Version bump, not a
// refreshed golden (the *-v1 files are what the Version 1 build wrote for
// the same sessions, kept to prove they fail closed). -update rewrites the
// files.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoded %d bytes differ from the %d golden bytes", name, len(got), len(want))
	}
}

// TestGoldenSessionFrame pins the journal of a negotiated funnel: a header
// and the base the negotiation's fold wrote, whose session payload holds
// the passage tables, per-net routes with their search effort, and history.
func TestGoldenSessionFrame(t *testing.T) {
	_, path := savedFunnel(t, negotiate)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "session-routed.golden", b)
}

// midPassJournal negotiates the funnel with a checkpoint after every
// rip-up and returns its journal as it stood when pass 2's progress event
// fired: the fold after that pass's last rip, before the pass-boundary
// checkpoint replaced it.
func midPassJournal(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jrnl")
	var image []byte
	e, err := NewEngine(funnelLayout(8), persistOpts(
		WithJournalFile(path),
		WithCheckpointEvery(1),
		WithProgress(func(p Progress) {
			if p.Pass != 2 {
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			image = b
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	return image
}

// midPassBase is the base of midPassJournal's image.
func midPassBase(t *testing.T) journal.Rebase {
	t.Helper()
	s, err := journal.Scan(midPassJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	return s.Rebase
}

// TestGoldenCheckpointFrame pins a journal whose base carries a mid-pass
// negotiation, as a checkpoint folds it.
func TestGoldenCheckpointFrame(t *testing.T) {
	image := midPassJournal(t)
	s, err := journal.Scan(image)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := snapshot.DecodeSession(s.Rebase.Session)
	if err != nil {
		t.Fatal(err)
	}
	if cp := sess.Negotiation; cp == nil || cp.Pass == nil || cp.PassesRecorded != 1 {
		t.Fatalf("captured base carries negotiation %+v, want one mid-pass 2", cp)
	}
	checkGolden(t, "checkpoint-midpass.golden", image)
}
