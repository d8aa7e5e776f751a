package genroute

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

// persistOpts is the shared engine configuration for the snapshot tests —
// the standard funnel negotiation setup the other engine tests use.
func persistOpts(extra ...Option) []Option {
	opts := []Option{WithPitch(2), WithPenaltyWeight(40), WithWorkers(1), WithHistory(1, 0)}
	return append(opts, extra...)
}

// checkSameRoutes asserts two results carry byte-identical routes.
func checkSameRoutes(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Nets) != len(want.Nets) {
		t.Fatalf("result has %d nets, want %d", len(got.Nets), len(want.Nets))
	}
	if got.TotalLength != want.TotalLength {
		t.Fatalf("total length %d, want %d", got.TotalLength, want.TotalLength)
	}
	for i := range got.Nets {
		g, w := &got.Nets[i], &want.Nets[i]
		if g.Net != w.Net || g.Found != w.Found {
			t.Fatalf("net %d: %q/%v, want %q/%v", i, g.Net, g.Found, w.Net, w.Found)
		}
		a, b := g.SortedSegments(), w.SortedSegments()
		if len(a) != len(b) {
			t.Fatalf("net %q: %d segments, want %d", g.Net, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("net %q: segment %d = %v, want %v", g.Net, k, a[k], b[k])
			}
		}
	}
}

// TestEngineSaveLoadPrepared snapshots a session before any routing: the
// loaded engine must be an equivalent prepared session — same passage
// tables, and the same negotiation outcome when routed afterwards.
func TestEngineSaveLoadPrepared(t *testing.T) {
	e1, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEngine(bytes.NewReader(buf.Bytes()), funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Routed() {
		t.Fatal("prepared-only snapshot loaded as routed")
	}
	if len(e2.passages) != len(e1.passages) {
		t.Fatalf("loaded %d passages, want %d", len(e2.passages), len(e1.passages))
	}
	for i := range e2.passages {
		if e2.passages[i] != e1.passages[i] {
			t.Fatalf("passage %d = %+v, want %+v", i, e2.passages[i], e1.passages[i])
		}
	}
	r1, err := e1.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Passes) != len(r2.Passes) {
		t.Fatalf("loaded session took %d passes, original %d", len(r2.Passes), len(r1.Passes))
	}
	checkSameRoutes(t, e2.Result(), e1.Result())
	checkEngineConsistency(t, e2)
}

// TestEngineSaveLoadRouted snapshots a negotiated session and reloads it:
// routes, overflow, and history must survive byte-identically, and the
// loaded session must be fully usable.
func TestEngineSaveLoadRouted(t *testing.T) {
	e1, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEngine(bytes.NewReader(buf.Bytes()), funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if !e2.Routed() {
		t.Fatal("routed snapshot loaded without state")
	}
	checkSameRoutes(t, e2.Result(), e1.Result())
	if e2.Overflow() != e1.Overflow() {
		t.Fatalf("loaded overflow %d, want %d", e2.Overflow(), e1.Overflow())
	}
	if len(e2.history) != len(e1.history) {
		t.Fatalf("history %v, want %v", e2.history, e1.history)
	}
	for i := range e2.history {
		if e2.history[i] != e1.history[i] {
			t.Fatalf("history[%d] = %d, want %d", i, e2.history[i], e1.history[i])
		}
	}
	checkEngineConsistency(t, e2)
	// The loaded session is live, not just a snapshot viewer.
	if err := e2.CheckConnectivity(); err != nil {
		t.Fatal(err)
	}
	if tr, err := e2.AssignTracks(0); err != nil || tr.Wires == 0 {
		t.Fatalf("tracks on loaded session: %v", err)
	}
}

// TestLoadEngineFailsClosed: streams that cannot be proven to match fail
// with the typed errors, never a half-initialized engine.
func TestLoadEngineFailsClosed(t *testing.T) {
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, err := LoadEngine(bytes.NewReader([]byte("not a snapshot")), funnelLayout(8)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("garbage: err = %v, want ErrSnapshotFormat", err)
	}
	if _, err := LoadEngine(bytes.NewReader(valid[:len(valid)-6]), funnelLayout(8)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated: err = %v, want ErrSnapshotCorrupt", err)
	}
	// A different net count is layout drift.
	if _, err := LoadEngine(bytes.NewReader(valid), funnelLayout(9)); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("net drift: err = %v, want ErrSnapshotLayout", err)
	}
	// So is a moved cell with identical topology.
	moved := funnelLayout(8)
	moved.Cells[0].Box = R(188, 0, 208, 96)
	if _, err := LoadEngine(bytes.NewReader(valid), moved); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("cell drift: err = %v, want ErrSnapshotLayout", err)
	}
}

// TestLoadAdoptsSnapshotPitch: the serialized passage capacities were
// extracted at the snapshot's pitch, so a conflicting WithPitch at load
// time must lose.
func TestLoadAdoptsSnapshotPitch(t *testing.T) {
	e1, err := NewEngine(funnelLayout(8), WithPitch(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEngine(bytes.NewReader(buf.Bytes()), funnelLayout(8), WithPitch(8))
	if err != nil {
		t.Fatal(err)
	}
	if e2.cfg.congest.Pitch != 2 {
		t.Fatalf("loaded pitch %d, want the snapshot's 2", e2.cfg.congest.Pitch)
	}
	for i := range e2.passages {
		if e2.passages[i].Capacity != e1.passages[i].Capacity {
			t.Fatalf("passage %d capacity %d, want %d", i, e2.passages[i].Capacity, e1.passages[i].Capacity)
		}
	}
}

// TestEngineCheckpointResumeEndToEnd is the engine-level kill-and-resume
// flow grouter uses: a run checkpointing into its journal is interrupted, a
// session recovered from the journal continues it, and the merged run
// matches an uninterrupted one byte-identically.
func TestEngineCheckpointResumeEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jrnl")

	ref, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(refRes.Passes) < 3 {
		t.Fatalf("fixture drained in %d passes; the test needs an interruptible run", len(refRes.Passes))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ea, err := NewEngine(funnelLayout(8), persistOpts(
		WithJournalFile(path),
		WithCheckpointEvery(1),
		WithProgress(func(p Progress) {
			if p.Pass == 2 {
				cancel()
			}
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.RouteNegotiated(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if err := ea.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	eb, err := LoadEngineJournal(path, funnelLayout(8), persistOpts(WithCheckpointEvery(1))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eb.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.PassesBefore < 1 {
		t.Fatalf("recovered session ran fresh (%d passes recorded before); the journal lost the checkpoint", res.PassesBefore)
	}
	if got, want := res.PassesBefore+len(res.Passes), len(refRes.Passes); got != want {
		t.Fatalf("checkpointed %d + resumed %d passes, uninterrupted run took %d",
			res.PassesBefore, len(res.Passes), want)
	}
	checkSameRoutes(t, eb.Result(), ref.Result())
	if eb.Overflow() != ref.Overflow() {
		t.Fatalf("resumed overflow %d, want %d", eb.Overflow(), ref.Overflow())
	}
	checkEngineConsistency(t, eb)
}

// writeJournal writes a journal at path whose base embeds the session frame
// and whose header names funnelLayout(8) at pitch 2, the layout and pitch
// the frames of these tests come from.
func writeJournal(t *testing.T, path string, frame []byte) {
	t.Helper()
	l := funnelLayout(8)
	l.NormalizeBoxes()
	j, err := journal.Create(path, journal.Header{LayoutHash: snapshot.LayoutHash(l), Pitch: 2}, journal.Rebase{Session: frame})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsInconsistentNegotiation: a negotiation in flight that
// passes its checksum but would not resume into the session it travels
// with fails LoadEngine and LoadEngineJournal with ErrSnapshotCorrupt, the
// class groutd quarantines, instead of failing later inside
// congest.NegotiateResume with an error nobody can classify. The frame is
// the funnel's mid-pass checkpoint (an unrouted session, so the net count
// is the loader's check, not the decoder's).
func TestLoadRejectsInconsistentNegotiation(t *testing.T) {
	frame := midPassFrame(t)
	for _, tc := range []struct {
		name   string
		break_ func(cp *congest.Checkpoint)
	}{
		{"intact", func(*congest.Checkpoint) {}},
		{"history-entry-extra", func(cp *congest.Checkpoint) { cp.History = append(cp.History, 0) }},
		{"nets-missing", func(cp *congest.Checkpoint) {
			cp.Nets = cp.Nets[:len(cp.Nets)-1]
			cp.InPass = false
		}},
		{"rip-flags-missing", func(cp *congest.Checkpoint) { cp.Ripped = nil }},
		{"mid-pass-without-reroute", func(cp *congest.Checkpoint) { cp.ReroutePass = 0 }},
		{"rip-position-out-of-range", func(cp *congest.Checkpoint) { cp.InitialPos = len(cp.Initial) + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := snapshot.DecodeSession(bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			tc.break_(sess.Negotiation)
			var buf bytes.Buffer
			if err := snapshot.EncodeSession(&buf, sess); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.jrnl")
			writeJournal(t, path, buf.Bytes())
			e1, err1 := LoadEngine(bytes.NewReader(buf.Bytes()), funnelLayout(8), persistOpts()...)
			e2, err2 := LoadEngineJournal(path, funnelLayout(8), persistOpts()...)
			if tc.name == "intact" {
				if err1 != nil || err2 != nil || e1.pending == nil || e2.pending == nil {
					t.Fatalf("intact frame: LoadEngine %v, LoadEngineJournal %v; want both to restore the negotiation", err1, err2)
				}
				return
			}
			if !errors.Is(err1, ErrSnapshotCorrupt) {
				t.Errorf("LoadEngine: err = %v, want ErrSnapshotCorrupt", err1)
			}
			if !errors.Is(err2, ErrSnapshotCorrupt) {
				t.Errorf("LoadEngineJournal: err = %v, want ErrSnapshotCorrupt", err2)
			}
		})
	}
}

// TestVersion1FilesFailClosed: the frames this build's predecessor wrote —
// a routed session and a mid-pass checkpoint, kept as the *-v1 goldens —
// fail LoadEngine with ErrSnapshotVersion, and so does a journal whose base
// embeds the Version 1 session frame. groutd quarantines such a journal
// and builds the session cold.
func TestVersion1FilesFailClosed(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, name := range []string{"session-routed-v1.golden", "checkpoint-midpass-v1.golden"} {
		if _, err := LoadEngine(bytes.NewReader(read(name)), funnelLayout(8), persistOpts()...); !errors.Is(err, ErrSnapshotVersion) {
			t.Errorf("LoadEngine(%s): err = %v, want ErrSnapshotVersion", name, err)
		}
	}
	path := filepath.Join(t.TempDir(), "v1.jrnl")
	writeJournal(t, path, read("session-routed-v1.golden"))
	if _, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("LoadEngineJournal over a Version 1 base: err = %v, want ErrSnapshotVersion", err)
	}
}

// TestCheckpointEveryNeedsJournal: checkpoints are folds of the session's
// journal, so asking for them without one fails construction instead of
// silently running without crash safety.
func TestCheckpointEveryNeedsJournal(t *testing.T) {
	if _, err := NewEngine(funnelLayout(8), persistOpts(WithCheckpointEvery(1))...); err == nil {
		t.Error("NewEngine accepted WithCheckpointEvery without WithJournalFile")
	}
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&buf, funnelLayout(8), persistOpts(WithCheckpointEvery(1))...); err == nil {
		t.Error("LoadEngine accepted WithCheckpointEvery without WithJournalFile")
	}
}

// interruptedNegotiation builds a funnel session journaled at path with a
// checkpoint after every rip-up and cancels its negotiation once pass 2
// completes, which leaves that pass boundary as the negotiation in flight.
func interruptedNegotiation(t *testing.T, path string) *Engine {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := NewEngine(funnelLayout(8), persistOpts(
		WithJournalFile(path),
		WithCheckpointEvery(1),
		WithProgress(func(p Progress) {
			if p.Pass == 2 {
				cancel()
			}
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	e.cfg.progress = nil
	if e.pending == nil {
		t.Fatal("the interrupted run left no negotiation in flight")
	}
	return e
}

// TestInstallsRetireNegotiationInFlight: an edit commit or a RouteAll on a
// session with a negotiation in flight replaces the routes that negotiation
// would continue from, so it retires it, on the live session and in the
// journal alike. RouteNegotiated afterwards runs fresh on both, and both
// end byte-identical to an uninterrupted negotiation of the same layout.
func TestInstallsRetireNegotiationInFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(t *testing.T, e *Engine)
	}{
		{"Edit.Commit", func(t *testing.T, e *Engine) {
			commitOps(t, e, func(tx *Edit) error { return tx.AddNet(padNet("eco", 80, 400)) })
		}},
		{"RouteAll", func(t *testing.T, e *Engine) {
			if _, err := e.RouteAll(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.jrnl")
			live := interruptedNegotiation(t, path)
			tc.install(t, live)
			ref, err := NewEngine(live.Layout(), persistOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.RouteNegotiated(context.Background()); err != nil {
				t.Fatal(err)
			}
			rec, err := LoadEngineJournal(path, funnelLayout(8), persistOpts(WithCheckpointEvery(1))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []*Engine{live, rec} {
				res, err := e.RouteNegotiated(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if res.PassesBefore != 0 {
					t.Fatalf("RouteNegotiated resumed a retired negotiation after %d passes", res.PassesBefore)
				}
				checkSameRoutes(t, e.Result(), ref.Result())
				checkEngineConsistency(t, e)
			}
		})
	}
}

// TestSaveRefingerprintsAfterECO: an ECO commit mutates the layout, so a
// snapshot taken before the edit must not load over the edited layout (and
// vice versa) — the memoized fingerprint has to be recomputed.
func TestSaveRefingerprintsAfterECO(t *testing.T) {
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := e.Save(&before); err != nil {
		t.Fatal(err)
	}
	tx := e.Edit()
	if err := tx.MoveCell("lower", 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := e.Save(&after); err != nil {
		t.Fatal(err)
	}
	// The pre-edit snapshot no longer matches the engine's layout...
	if _, err := LoadEngine(bytes.NewReader(before.Bytes()), e.Layout()); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("stale snapshot: err = %v, want ErrSnapshotLayout", err)
	}
	// ...but the post-edit one round-trips, routes included.
	e2, err := LoadEngine(bytes.NewReader(after.Bytes()), e.Layout(), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	checkSameRoutes(t, e2.Result(), e.Result())
	checkEngineConsistency(t, e2)
}

// TestWarmStartSkipsPreparation pins, without timing anything, what a warm
// start must not redo: LoadEngine, and LoadEngineJournal over the journal a
// load writes, restore a routed session from its frame without routing (the
// RouteNet and Search seams must not fire), without re-extracting passages
// (a capacity edited in the frame survives the load), and without
// re-validating (a frame over a layout Validate rejects still loads, as
// restoreEngine documents).
func TestWarmStartSkipsPreparation(t *testing.T) {
	l, err := MacroGrid(6, 6, 40, 30, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(l, WithPitch(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := e.Save(&saved); err != nil {
		t.Fatal(err)
	}
	sess, err := snapshot.DecodeSession(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sess.Passages[0].Capacity += 7
	wantCap := sess.Passages[0].Capacity
	var edited bytes.Buffer
	if err := snapshot.EncodeSession(&edited, sess); err != nil {
		t.Fatal(err)
	}
	// The same frame over a layout with a pad strictly inside a cell.
	bad := l.Clone()
	box := bad.Cells[0].Box
	bad.Nets[0].Terminals[0].Pins[0] = Pin{Name: "in", Pos: Pt((box.MinX+box.MaxX)/2, (box.MinY+box.MaxY)/2), Cell: NoCell}
	if bad.Validate() == nil {
		t.Fatal("Validate accepts the planted pad")
	}
	sess.LayoutHash = snapshot.LayoutHash(bad)
	var invalid bytes.Buffer
	if err := snapshot.EncodeSession(&invalid, sess); err != nil {
		t.Fatal(err)
	}

	var fired atomic.Int32
	defer faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.RouteNet || s.Point == faultinject.Search {
			fired.Add(1)
		}
		return faultinject.None
	})()
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		frame []byte
		l     *Layout
	}{{"edited capacity", edited.Bytes(), l}, {"invalid layout", invalid.Bytes(), bad}} {
		path := filepath.Join(dir, tc.name+".jrnl")
		warm, err := LoadEngine(bytes.NewReader(tc.frame), tc.l, WithJournalFile(path))
		if err != nil {
			t.Fatalf("%s: LoadEngine: %v", tc.name, err)
		}
		if err := warm.CloseJournal(); err != nil {
			t.Fatal(err)
		}
		rec, err := LoadEngineJournal(path, tc.l)
		if err != nil {
			t.Fatalf("%s: LoadEngineJournal: %v", tc.name, err)
		}
		if n := fired.Load(); n != 0 {
			t.Fatalf("%s: warm starts routed: the route seams fired %d times", tc.name, n)
		}
		for _, got := range []*Engine{warm, rec} {
			if !got.Routed() || got.passages[0].Capacity != wantCap {
				t.Errorf("%s: routed %v, passage 0 capacity %d; want the frame's routes and capacity %d",
					tc.name, got.Routed(), got.passages[0].Capacity, wantCap)
			}
		}
		if err := rec.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkEngineLoad measures the warm-start claim on a 64×64 macro-grid
// session. routed-warm-vs-cold-pct, which CI gates at ≤10, is LoadEngine of
// the routed session's frame (fingerprint check, index rebuild, routes
// decoded; no validation, extraction or routing) against what it saves:
// NewEngine plus one RouteAll. warm-vs-cold-pct is LoadEngine of the
// unrouted frame against NewEngine alone, reported only: both sides pay
// about the same index build, so it measures the index more than the warm
// start. TestWarmStartSkipsPreparation pins what a warm start skips.
func BenchmarkEngineLoad(b *testing.B) {
	ctx := context.Background()
	l, err := MacroGrid(64, 64, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(l)
	if err != nil {
		b.Fatal(err)
	}
	var unrouted, routed bytes.Buffer
	if err := e.Save(&unrouted); err != nil {
		b.Fatal(err)
	}
	if _, err := e.RouteAll(ctx); err != nil {
		b.Fatal(err)
	}
	if err := e.Save(&routed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var prepare, route, warm, warmRouted time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		cold, err := NewEngine(l)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := cold.RouteAll(ctx); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if _, err := LoadEngine(bytes.NewReader(unrouted.Bytes()), l); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		if _, err := LoadEngine(bytes.NewReader(routed.Bytes()), l); err != nil {
			b.Fatal(err)
		}
		warmRouted += time.Since(t3)
		prepare, route, warm = prepare+t1.Sub(t0), route+t2.Sub(t1), warm+t3.Sub(t2)
	}
	b.ReportMetric(float64(warm.Nanoseconds())/float64(b.N), "warm-ns/op")
	b.ReportMetric(float64(warm)*100/float64(prepare), "warm-vs-cold-pct")
	b.ReportMetric(float64(warmRouted.Nanoseconds())/float64(b.N), "routed-warm-ns/op")
	b.ReportMetric(float64(warmRouted)*100/float64(prepare+route), "routed-warm-vs-cold-pct")
}

// BenchmarkJournalRecover measures a session's one durable file against a
// snapshot: an unedited 64×64 macro-grid session whose journal base was
// folded after RouteAll recovers from that journal and, for comparison,
// from the same session's Save frame. The base is that frame plus a header,
// restored over the creation layout without re-validation, so the two cost
// about the same. CI gates journal-vs-snapshot-pct at ≤200.
func BenchmarkJournalRecover(b *testing.B) {
	l, err := MacroGrid(64, 64, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "sess.jrnl")
	e, err := NewEngine(l, WithJournalFile(path))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := e.CloseJournal(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var snap, jrnl time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := LoadEngine(bytes.NewReader(data), l); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		rec, err := LoadEngineJournal(path, l)
		if err != nil {
			b.Fatal(err)
		}
		jrnl += time.Since(t1)
		snap += t1.Sub(t0)
		if err := rec.CloseJournal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snap)/1e6/float64(b.N), "snapshot-ms/op")
	b.ReportMetric(float64(jrnl)/1e6/float64(b.N), "journal-ms/op")
	b.ReportMetric(float64(jrnl)*100/float64(snap), "journal-vs-snapshot-pct")
	b.ReportMetric(float64(st.Size()-int64(len(data))), "journal-extra-bytes")
}

// BenchmarkNegotiateResume32 is the crash-safety smoke at macro scale: a
// 32×32 negotiation checkpointing into its journal, killed after its first
// pass, and continued by RouteNegotiated on a session recovered from the
// journal, must still drain to zero overflow with routes byte-identical to
// an uninterrupted run (CI gates overflow/op=0 and identical/op=1). Pitch 6
// (capacity 2 per corridor) congests the grid enough to need rip-up passes
// while still converging in seconds.
func BenchmarkNegotiateResume32(b *testing.B) {
	l, err := MacroGrid(32, 32, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	macroOpts := func(extra ...Option) []Option {
		opts := []Option{WithPitch(6), WithPenaltyWeight(40), WithWeightStep(40),
			WithHistory(1, 10), WithMaxPasses(12)}
		return append(opts, extra...)
	}
	ref, err := NewEngine(l, macroOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	refRes, err := ref.RouteNegotiated(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if len(refRes.Passes) < 2 {
		b.Fatalf("scene drained in %d passes; the interruption needs a longer run", len(refRes.Passes))
	}
	sameRoutes := func(got, want *Result) bool {
		if got.TotalLength != want.TotalLength {
			return false
		}
		for i := range got.Nets {
			a, bb := got.Nets[i].SortedSegments(), want.Nets[i].SortedSegments()
			if len(a) != len(bb) {
				return false
			}
			for k := range a {
				if a[k] != bb[k] {
					return false
				}
			}
		}
		return true
	}
	b.ResetTimer()
	var overflow, identical float64
	for i := 0; i < b.N; i++ {
		path := filepath.Join(b.TempDir(), "run.jrnl")
		ctx, cancel := context.WithCancel(context.Background())
		ea, err := NewEngine(l, macroOpts(
			WithJournalFile(path),
			WithCheckpointEvery(64),
			WithProgress(func(p Progress) {
				if p.Pass == 1 {
					cancel()
				}
			}))...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ea.RouteNegotiated(ctx); !errors.Is(err, context.Canceled) {
			b.Fatalf("interrupted run: err = %v, want context.Canceled", err)
		}
		cancel()
		if err := ea.CloseJournal(); err != nil {
			b.Fatal(err)
		}
		eb, err := LoadEngineJournal(path, l, macroOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eb.RouteNegotiated(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.PassesBefore < 1 {
			b.Fatal("recovered session ran fresh; the journal lost the checkpoint")
		}
		overflow = float64(eb.Overflow())
		identical = 0
		if sameRoutes(eb.Result(), ref.Result()) {
			identical = 1
		}
	}
	b.ReportMetric(overflow, "overflow/op")
	b.ReportMetric(identical, "identical/op")
}
