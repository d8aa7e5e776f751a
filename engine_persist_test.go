package genroute

import (
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
	"repro/internal/router"
	"repro/internal/snapshot"
)

// persistOpts is the shared engine configuration for the persistence tests —
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

// savedFunnel builds the funnel session journaled at a fresh path, routes
// it with route when non-nil (the flow folds the journal), and retires the
// engine (CloseJournal), so the file holds the session as a recovery finds
// it. The engine still answers reads.
func savedFunnel(t *testing.T, route func(*Engine) error, opts ...Option) (*Engine, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.jrnl")
	e, err := NewEngine(funnelLayout(8), append(persistOpts(WithJournalFile(path)), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if route != nil {
		if err := route(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	return e, path
}

// negotiate is savedFunnel's route for a negotiated session.
func negotiate(e *Engine) error {
	_, err := e.RouteNegotiated(context.Background())
	return err
}

// TestEngineSaveLoadPrepared recovers a session from the journal it wrote
// before any routing: the recovered engine must be an equivalent prepared
// session — same passage tables, and the same negotiation outcome when
// routed afterwards.
func TestEngineSaveLoadPrepared(t *testing.T) {
	e1, path := savedFunnel(t, nil)
	e2, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Routed() {
		t.Fatal("prepared-only journal recovered as routed")
	}
	p1, p2 := e1.st.Load().passages, e2.st.Load().passages
	if len(p2) != len(p1) {
		t.Fatalf("loaded %d passages, want %d", len(p2), len(p1))
	}
	for i := range p2 {
		if p2[i] != p1[i] {
			t.Fatalf("passage %d = %+v, want %+v", i, p2[i], p1[i])
		}
	}
	// e1 is retired (savedFunnel closed its journal), so a journal-free
	// session over the same layout negotiates the reference.
	ref, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ref.RouteNegotiated(context.Background())
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
	checkSameRoutes(t, e2.Result(), ref.Result())
	checkEngineConsistency(t, e2)
}

// TestEngineSaveLoadRouted recovers a negotiated session from its journal:
// routes, overflow, and history must survive byte-identically, and the
// recovered session must be fully usable.
func TestEngineSaveLoadRouted(t *testing.T) {
	e1, path := savedFunnel(t, negotiate)
	e2, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if !e2.Routed() {
		t.Fatal("routed journal recovered without state")
	}
	checkSameRoutes(t, e2.Result(), e1.Result())
	if e2.Overflow() != e1.Overflow() {
		t.Fatalf("loaded overflow %d, want %d", e2.Overflow(), e1.Overflow())
	}
	h1, h2 := e1.st.Load().history, e2.st.Load().history
	if len(h2) != len(h1) {
		t.Fatalf("history %v, want %v", h2, h1)
	}
	for i := range h2 {
		if h2[i] != h1[i] {
			t.Fatalf("history[%d] = %d, want %d", i, h2[i], h1[i])
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

// writeFile writes data to a fresh file and returns its path.
func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.jrnl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadEngineFailsClosed: files that cannot be proven to match fail
// with the typed errors, never a half-initialized engine.
func TestLoadEngineFailsClosed(t *testing.T) {
	_, path := savedFunnel(t, nil)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := LoadEngineJournal(writeFile(t, []byte("not a journal at all")), funnelLayout(8)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("garbage: err = %v, want ErrSnapshotFormat", err)
	}
	if _, err := LoadEngineJournal(writeFile(t, valid[:len(valid)-6]), funnelLayout(8)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated: err = %v, want ErrSnapshotCorrupt", err)
	}
	// A different net count is layout drift.
	if _, err := LoadEngineJournal(path, funnelLayout(9)); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("net drift: err = %v, want ErrSnapshotLayout", err)
	}
	// So is a moved cell with identical topology.
	moved := funnelLayout(8)
	moved.Cells[0].Box = R(188, 0, 208, 96)
	if _, err := LoadEngineJournal(path, moved); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("cell drift: err = %v, want ErrSnapshotLayout", err)
	}
}

// TestLoadAdoptsSnapshotPitch: the journaled passage capacities were
// extracted at the base's pitch, so a conflicting WithPitch at load time
// must lose.
func TestLoadAdoptsSnapshotPitch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jrnl")
	e1, err := NewEngine(funnelLayout(8), WithPitch(2), WithJournalFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEngineJournal(path, funnelLayout(8), WithPitch(8))
	if err != nil {
		t.Fatal(err)
	}
	if e2.cfg.congest.Pitch != 2 {
		t.Fatalf("loaded pitch %d, want the journal's 2", e2.cfg.congest.Pitch)
	}
	p1, p2 := e1.st.Load().passages, e2.st.Load().passages
	for i := range p2 {
		if p2[i].Capacity != p1[i].Capacity {
			t.Fatalf("passage %d capacity %d, want %d", i, p2[i].Capacity, p1[i].Capacity)
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

// writeBase writes a journal holding a header for l at pitch and the base
// rb, as NewEngine writes one, and returns its path.
func writeBase(t *testing.T, l *Layout, pitch int64, rb journal.Rebase) string {
	t.Helper()
	lc := l.Clone()
	lc.NormalizeBoxes()
	return writeFile(t, journal.EncodeBase(journal.Header{LayoutHash: snapshot.LayoutHash(lc), Pitch: pitch}, rb))
}

// TestLoadRejectsInconsistentNegotiation: a negotiation in flight that
// passes its checksum but would not resume into the session it travels
// with fails LoadEngineJournal with ErrSnapshotCorrupt, the class groutd
// quarantines, instead of failing later inside congest.NegotiateResume
// with an error nobody can classify. The payload is the funnel's mid-pass
// checkpoint (an unrouted session, so the net count is the loader's check,
// not the decoder's).
func TestLoadRejectsInconsistentNegotiation(t *testing.T) {
	payload := midPassBase(t).Session
	for _, tc := range []struct {
		name   string
		break_ func(cp *congest.Checkpoint)
	}{
		{"intact", func(*congest.Checkpoint) {}},
		{"history-entry-extra", func(cp *congest.Checkpoint) { cp.History = append(cp.History, 0) }},
		{"nets-missing", func(cp *congest.Checkpoint) {
			cp.Nets = cp.Nets[:len(cp.Nets)-1]
			cp.Pass = nil
		}},
		{"rip-flags-missing", func(cp *congest.Checkpoint) { cp.Pass.Ripped = nil }},
		{"mid-pass-without-reroute", func(cp *congest.Checkpoint) { cp.ReroutePass = 0 }},
		{"rip-position-out-of-range", func(cp *congest.Checkpoint) { cp.Pass.InitialPos = len(cp.Pass.Initial) + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := snapshot.DecodeSession(payload)
			if err != nil {
				t.Fatal(err)
			}
			tc.break_(sess.Negotiation)
			path := writeBase(t, funnelLayout(8), 2, journal.Rebase{Session: snapshot.EncodeSession(sess)})
			e, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...)
			if tc.name == "intact" {
				if err != nil {
					t.Fatalf("intact payload: LoadEngineJournal %v; want it to restore the negotiation", err)
				}
				withWriter(t, e, func(w *writer) {
					if w.pending == nil {
						t.Fatal("intact payload: LoadEngineJournal restored no negotiation")
					}
				})
				return
			}
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("LoadEngineJournal: err = %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// TestVersion1FilesFailClosed: the journals this build's predecessor wrote
// for a negotiated funnel and for its mid-pass checkpoint, kept as the
// *-v1 goldens, fail LoadEngineJournal with ErrSnapshotVersion alone, not
// as corruption. groutd quarantines such a journal and builds the session
// cold.
func TestVersion1FilesFailClosed(t *testing.T) {
	for _, name := range []string{"session-routed-v1.golden", "checkpoint-midpass-v1.golden"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadEngineJournal(writeFile(t, b), funnelLayout(8), persistOpts()...)
		if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("LoadEngineJournal(%s): err = %v, want ErrSnapshotVersion alone", name, err)
		}
	}
}

// TestCheckpointEveryNeedsJournal: checkpoints are folds of the session's
// journal, so asking for them without one fails construction instead of
// silently running without crash safety.
func TestCheckpointEveryNeedsJournal(t *testing.T) {
	if _, err := NewEngine(funnelLayout(8), persistOpts(WithCheckpointEvery(1))...); err == nil {
		t.Error("NewEngine accepted WithCheckpointEvery without WithJournalFile")
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
	withWriter(t, e, func(w *writer) {
		if w.pending == nil {
			t.Fatal("the interrupted run left no negotiation in flight")
		}
	})
	return e
}

// TestInstallBestPassBeforeTheLast: an interrupted run whose best pass is
// not its last installs that pass's routes with a map built over them, not
// the live map, which counts the last pass. No scene is known to produce
// such a run, so the result is built by hand from a real negotiation's
// passes: the converged one between two copies of the first.
func TestInstallBestPassBeforeTheLast(t *testing.T) {
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	s := e.st.Load()
	ref, err := congest.Negotiate(context.Background(), s.l, s.ix, s.passages,
		e.ripupConfig("negotiate", s.ix, len(s.l.Nets)))
	if err != nil {
		t.Fatal(err)
	}
	first, best := ref.Results[0], ref.Final()
	if !ref.Converged || ref.Passes[0].Overflow == 0 {
		t.Fatalf("fixture must start overflowed and converge: %+v", ref.Passes)
	}
	pass := func(lr *router.LayoutResult) congest.Pass {
		return congest.Pass{
			Overflow: congest.BuildMap(s.passages, lr.NetSegments()).TotalOverflow(),
			Routed:   len(lr.Nets) - len(lr.Failed),
		}
	}
	res := &congest.NegotiateResult{
		Results: []*router.LayoutResult{first, best, first},
		Passes:  []congest.Pass{pass(first), pass(best), pass(first)},
		Map:     congest.BuildMap(s.passages, first.NetSegments()),
		History: ref.History,
	}
	if b := res.BestPass(); b != 1 {
		t.Fatalf("BestPass = %d, want 1", b)
	}
	withWriter(t, e, func(w *writer) {
		if err := e.installNegotiated(w, s, res, context.DeadlineExceeded); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("install returned %v, want the run's error", err)
		}
	})
	if e.Result() != best || e.Overflow() != 0 {
		t.Fatalf("installed overflow %d; want the best pass, overflow 0", e.Overflow())
	}
	checkEngineConsistency(t, e)
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

// TestSaveRefingerprintsAfterECO: an ECO commit replaces the layout, so the
// memoized fingerprint has to follow it: a base written before the edit
// must not load over the edited layout, and a base folded after it, which
// carries the edited layout, must fingerprint to that layout and recover
// with its routes.
func TestSaveRefingerprintsAfterECO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jrnl")
	e, err := NewEngine(funnelLayout(8), persistOpts(WithJournalFile(path), withJournalCompaction(1, 0))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := negotiate(e); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Edit()
	if err := tx.MoveCell("lower", 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.JournalStats(); st.Records != 0 {
		t.Fatalf("journal holds %d records after the commit, want it folded", st.Records)
	}
	if err := e.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	// The pre-edit base no longer matches the engine's layout...
	if _, err := LoadEngineJournal(writeFile(t, before), e.Layout()); !errors.Is(err, ErrSnapshotLayout) {
		t.Fatalf("stale base: err = %v, want ErrSnapshotLayout", err)
	}
	// ...but the post-edit one round-trips, routes included.
	e2, err := LoadEngineJournal(path, funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	checkSameRoutes(t, e2.Result(), e.Result())
	checkEngineConsistency(t, e2)
}

// TestWarmStartSkipsPreparation pins, without timing anything, what a warm
// start must not redo: LoadEngineJournal restores a routed session from its
// base without routing (the RouteNet and Search seams must not fire),
// without re-extracting passages (a capacity edited in the payload survives
// the load), and without re-validating (a base over a layout Validate
// rejects still loads, as restoreEngine documents).
func TestWarmStartSkipsPreparation(t *testing.T) {
	l, err := MacroGrid(6, 6, 40, 30, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.jrnl")
	e, err := NewEngine(l, WithPitch(4), WithJournalFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	saved, err := journal.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := snapshot.DecodeSession(saved.Rebase.Session)
	if err != nil {
		t.Fatal(err)
	}
	sess.Passages[0].Capacity += 7
	wantCap := sess.Passages[0].Capacity
	edited := snapshot.EncodeSession(sess)
	// The same payload over a layout with a pad strictly inside a cell.
	bad := l.Clone()
	box := bad.Cells[0].Box
	bad.Nets[0].Terminals[0].Pins[0] = Pin{Name: "in", Pos: Pt((box.MinX+box.MaxX)/2, (box.MinY+box.MaxY)/2), Cell: NoCell}
	if bad.Validate() == nil {
		t.Fatal("Validate accepts the planted pad")
	}
	sess.LayoutHash = snapshot.LayoutHash(bad)
	invalid := snapshot.EncodeSession(sess)

	var fired atomic.Int32
	defer faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.RouteNet || s.Point == faultinject.Search {
			fired.Add(1)
		}
		return faultinject.None
	})()
	for _, tc := range []struct {
		name    string
		payload []byte
		l       *Layout
	}{{"edited capacity", edited, l}, {"invalid layout", invalid, bad}} {
		rec, err := LoadEngineJournal(writeBase(t, tc.l, 4, journal.Rebase{Session: tc.payload}), tc.l)
		if err != nil {
			t.Fatalf("%s: LoadEngineJournal: %v", tc.name, err)
		}
		if n := fired.Load(); n != 0 {
			t.Fatalf("%s: warm start routed: the route seams fired %d times", tc.name, n)
		}
		if got := rec.st.Load().passages[0].Capacity; !rec.Routed() || got != wantCap {
			t.Errorf("%s: routed %v, passage 0 capacity %d; want the payload's routes and capacity %d",
				tc.name, rec.Routed(), got, wantCap)
		}
		if err := rec.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkEngineLoad measures the warm-start claim on a 64×64 macro-grid
// session. routed-warm-vs-cold-pct, which CI gates at ≤10, is
// LoadEngineJournal over the journal a routed session wrote (scan,
// fingerprint check, index rebuild, routes decoded; no validation,
// extraction or routing) against what it saves: NewEngine plus one
// RouteAll. warm-vs-cold-pct is LoadEngineJournal over an unrouted
// session's journal against NewEngine alone, reported only: both sides pay
// about the same index build, so it measures the index more than the warm
// start. Each recovered journal is closed outside the timings.
// TestWarmStartSkipsPreparation pins what a warm start skips.
func BenchmarkEngineLoad(b *testing.B) {
	ctx := context.Background()
	l, err := MacroGrid(64, 64, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	unrouted, routed := filepath.Join(dir, "unrouted.jrnl"), filepath.Join(dir, "routed.jrnl")
	for _, path := range []string{unrouted, routed} {
		e, err := NewEngine(l, WithJournalFile(path))
		if err != nil {
			b.Fatal(err)
		}
		if path == routed {
			if _, err := e.RouteAll(ctx); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.CloseJournal(); err != nil {
			b.Fatal(err)
		}
	}
	load := func(path string) time.Duration {
		t0 := time.Now()
		e, err := LoadEngineJournal(path, l)
		d := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.CloseJournal(); err != nil {
			b.Fatal(err)
		}
		return d
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
		prepare, route = prepare+t1.Sub(t0), route+time.Since(t1)
		warm += load(unrouted)
		warmRouted += load(routed)
	}
	b.ReportMetric(float64(warm.Nanoseconds())/float64(b.N), "warm-ns/op")
	b.ReportMetric(float64(warm)*100/float64(prepare), "warm-vs-cold-pct")
	b.ReportMetric(float64(warmRouted.Nanoseconds())/float64(b.N), "routed-warm-ns/op")
	b.ReportMetric(float64(warmRouted)*100/float64(prepare+route), "routed-warm-vs-cold-pct")
}

// BenchmarkJournalRecover measures a session's one durable file against
// the in-memory restore of its base: an unedited 64×64 macro-grid session
// whose journal base was folded after RouteAll recovers from that journal
// and, for reference, from the base's session payload already in memory
// (DecodeSession and restoreEngine over a normalized copy of the layout,
// the restore a recovery runs once the file is read and checked). The
// difference is the file read, the frames' CRCs and attaching the journal.
// CI gates journal-vs-snapshot-pct at ≤200.
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
	s, err := journal.ScanFile(path)
	if err != nil {
		b.Fatal(err)
	}
	payload := s.Rebase.Session
	b.ResetTimer()
	var snap, jrnl time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		sess, err := snapshot.DecodeSession(payload)
		if err != nil {
			b.Fatal(err)
		}
		lc := l.Clone()
		lc.NormalizeBoxes()
		if _, err := restoreEngine(sess, lc, snapshot.LayoutHash(lc), newConfig(nil)); err != nil {
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
	b.ReportMetric(float64(s.Size-int64(len(payload))), "journal-extra-bytes")
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
