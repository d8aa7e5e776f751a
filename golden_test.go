package genroute

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden frame files under testdata")

// checkGolden compares an encoded frame with testdata/<name>. The golden
// files pin the bytes on disk: a snapshot or checkpoint written by one
// build must decode in the next, so any change here needs a codec Version
// bump, not a refreshed golden. -update rewrites the files.
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

// TestGoldenCheckpointFrame pins a mid-pass checkpoint. With a checkpoint
// after every rip-up, the file on disk when pass 2's progress event fires
// is the one written after that pass's last rip, before its boundary
// checkpoint replaces it.
func TestGoldenCheckpointFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	var frame []byte
	e, err := NewEngine(funnelLayout(8), persistOpts(
		WithCheckpointFile(path, 1),
		WithProgress(func(p Progress) {
			if p.Pass != 2 {
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			frame = b
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !cp.InPass() || cp.Passes() != 1 {
		t.Fatalf("captured checkpoint: in pass %v after %d passes, want mid-pass 2", cp.InPass(), cp.Passes())
	}
	checkGolden(t, "checkpoint-midpass.golden", frame)
}
