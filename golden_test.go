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

var updateGolden = flag.Bool("update", false, "rewrite the golden frame files under testdata")

// checkGolden compares an encoded frame with testdata/<name>. The golden
// files pin the bytes on disk: a session frame written by one build must
// decode in the next, so any change here needs a codec Version bump, not a
// refreshed golden (the *-v1 files are the Version 1 frames, kept to prove
// they fail closed). -update rewrites the files.
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

// TestGoldenSessionFrame pins the session snapshot of a negotiated funnel:
// passage tables, per-net routes with their search effort, and history.
func TestGoldenSessionFrame(t *testing.T) {
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "session-routed.golden", buf.Bytes())
}

// midPassFrame negotiates the funnel with a checkpoint after every rip-up
// and returns the session frame its journal's base held when pass 2's
// progress event fired: the fold after that pass's last rip, before the
// pass-boundary checkpoint replaced it.
func midPassFrame(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jrnl")
	var frame []byte
	e, err := NewEngine(funnelLayout(8), persistOpts(
		WithJournalFile(path),
		WithCheckpointEvery(1),
		WithProgress(func(p Progress) {
			if p.Pass != 2 {
				return
			}
			s, err := journal.ScanFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			frame = s.Rebase.Session
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestGoldenCheckpointFrame pins a session frame carrying a mid-pass
// negotiation, as a checkpoint folds it into the session's journal.
func TestGoldenCheckpointFrame(t *testing.T) {
	frame := midPassFrame(t)
	sess, err := snapshot.DecodeSession(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if cp := sess.Negotiation; cp == nil || !cp.InPass || cp.PassesRecorded != 1 {
		t.Fatalf("captured frame carries negotiation %+v, want one mid-pass 2", cp)
	}
	checkGolden(t, "checkpoint-midpass.golden", frame)
}
