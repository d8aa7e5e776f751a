package congest

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/plane"
)

// installPanicOnNet arms the fault-injection harness to panic whenever the
// named net is rerouted; the returned restore func disarms it.
func installPanicOnNet(t *testing.T, name string) func() {
	t.Helper()
	return faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.Reroute && s.Label == name {
			return faultinject.Panic
		}
		return faultinject.None
	})
}

// checkpointConfig is the fixture configuration for the resume property
// tests: funnelLayout(8) overflows the capacity-3 slit by 5, and with
// history the drain takes several passes — enough to scatter checkpoints
// across pass boundaries and mid-pass rips.
func checkpointConfig() Config {
	return Config{Pitch: 2, Weight: 150, MaxPasses: 6, Workers: 1, HistoryGain: 1}
}

// preparedFunnel builds the shared prepared session for the resume tests.
func preparedFunnel(t *testing.T, nNets int, pitch int64) (*layout.Layout, *plane.Index, []Passage) {
	t.Helper()
	l := funnelLayout(nNets)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	passages, err := Extract(ix, pitch)
	if err != nil {
		t.Fatal(err)
	}
	return l, ix, passages
}

// checkSameOutcome asserts the resume-equals-fresh property: byte-identical
// final routes, identical overflow, history, and termination verdict.
func checkSameOutcome(t *testing.T, got, want *NegotiateResult) {
	t.Helper()
	g, w := got.Final(), want.Final()
	if len(g.Nets) != len(w.Nets) {
		t.Fatalf("final has %d nets, want %d", len(g.Nets), len(w.Nets))
	}
	for i := range g.Nets {
		if !sameRoute(&g.Nets[i], &w.Nets[i]) {
			t.Fatalf("net %d: resumed route %v differs from uninterrupted %v",
				i, g.Nets[i].Segments, w.Nets[i].Segments)
		}
	}
	if go_, wo := got.Map.TotalOverflow(), want.Map.TotalOverflow(); go_ != wo {
		t.Fatalf("final overflow %d, want %d", go_, wo)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("history length %d, want %d", len(got.History), len(want.History))
	}
	for pi := range got.History {
		if got.History[pi] != want.History[pi] {
			t.Fatalf("history[%d] = %d, want %d", pi, got.History[pi], want.History[pi])
		}
	}
	if got.Converged != want.Converged || got.Stalled != want.Stalled {
		t.Fatalf("verdict converged=%v stalled=%v, want %v/%v",
			got.Converged, got.Stalled, want.Converged, want.Stalled)
	}
}

// TestResumeEqualsFreshFromEveryCheckpoint is the core crash-safety
// property: a run checkpointed after every single rip-up, then resumed from
// ANY of those blobs, finishes with routes byte-identical to the
// uninterrupted run — whichever pass, and whichever rip within the pass,
// the blob was taken at.
func TestResumeEqualsFreshFromEveryCheckpoint(t *testing.T) {
	l, ix, passages := preparedFunnel(t, 8, 2)
	ref, err := Negotiate(context.Background(), l, ix, passages, checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Passes) < 2 {
		t.Fatalf("fixture drained in %d passes; the property test needs rip-up passes", len(ref.Passes))
	}

	var blobs []*Checkpoint
	cfg := checkpointConfig()
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(cp *Checkpoint) error { blobs = append(blobs, cp); return nil }
	hooked, err := Negotiate(context.Background(), l, ix, passages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSameOutcome(t, hooked, ref) // the hook itself must not perturb the run
	if len(blobs) < 4 {
		t.Fatalf("only %d checkpoints observed; fixture too small", len(blobs))
	}

	sawMidPass := false
	for bi, cp := range blobs {
		if cp.Pass != nil {
			sawMidPass = true
		}
		res, err := NegotiateResume(context.Background(), l, ix, passages, checkpointConfig(), cp)
		if err != nil {
			t.Fatalf("blob %d (mid-pass=%v, passes=%d): %v", bi, cp.Pass != nil, cp.PassesRecorded, err)
		}
		checkSameOutcome(t, res, ref)
		// The resumed leg records exactly the passes the checkpoint had not
		// (a blob taken after the final pass re-records the carried state as
		// one pass so Final() is well-defined).
		want := len(ref.Passes) - cp.PassesRecorded
		if want == 0 {
			want = 1
		}
		if len(res.Passes) != want {
			t.Fatalf("blob %d: resumed leg recorded %d passes, want %d", bi, len(res.Passes), want)
		}
	}
	if !sawMidPass {
		t.Fatal("no mid-pass checkpoint observed; CheckpointEvery=1 should produce them")
	}
}

// TestResumeAfterKillMatchesUninterrupted kills the run (context cancel) at
// randomized checkpoints, takes the final blob the cancellation path
// delivers, resumes from it, and requires the resumed run to match the
// uninterrupted one byte-identically.
func TestResumeAfterKillMatchesUninterrupted(t *testing.T) {
	l, ix, passages := preparedFunnel(t, 8, 2)
	ref, err := Negotiate(context.Background(), l, ix, passages, checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Count the checkpoints of a full run to bound the kill points.
	total := 0
	cfg := checkpointConfig()
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(*Checkpoint) error { total++; return nil }
	if _, err := Negotiate(context.Background(), l, ix, passages, cfg); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		kill := 1 + rng.Intn(total)
		ctx, cancel := context.WithCancel(context.Background())
		var last *Checkpoint
		seen := 0
		cfg := checkpointConfig()
		cfg.CheckpointEvery = 1
		cfg.Checkpoint = func(cp *Checkpoint) error {
			last = cp
			if seen++; seen == kill {
				cancel() // the run stops at the next poll and delivers a final blob
			}
			return nil
		}
		partial, err := Negotiate(ctx, l, ix, passages, cfg)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("kill at %d: %v", kill, err)
		}
		if err != nil {
			// The interrupted run still reports a consistent partial state.
			checkMapMatchesRoutes(t, partial.Map, partial.Final())
		}
		if last == nil {
			t.Fatalf("kill at %d: no checkpoint delivered", kill)
		}
		res, rerr := NegotiateResume(context.Background(), l, ix, passages, checkpointConfig(), last)
		if rerr != nil {
			t.Fatalf("kill at %d: resume: %v", kill, rerr)
		}
		checkSameOutcome(t, res, ref)
	}
}

// TestResumeIsRepeatable resumes twice from the same blob: the blob must
// survive the first resume intact (NegotiateResume clones it).
func TestResumeIsRepeatable(t *testing.T) {
	l, ix, passages := preparedFunnel(t, 8, 2)
	var blobs []*Checkpoint
	cfg := checkpointConfig()
	cfg.CheckpointEvery = 2
	cfg.Checkpoint = func(cp *Checkpoint) error { blobs = append(blobs, cp); return nil }
	ref, err := Negotiate(context.Background(), l, ix, passages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := blobs[len(blobs)/2]
	a, err := NegotiateResume(context.Background(), l, ix, passages, checkpointConfig(), mid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NegotiateResume(context.Background(), l, ix, passages, checkpointConfig(), mid)
	if err != nil {
		t.Fatal(err)
	}
	checkSameOutcome(t, a, ref)
	checkSameOutcome(t, b, ref)
}

// TestCheckpointHookErrorAbortsRun: a failing checkpoint write must abort
// the run loudly — a caller asking for crash safety must not lose blobs.
func TestCheckpointHookErrorAbortsRun(t *testing.T) {
	l, ix, passages := preparedFunnel(t, 8, 2)
	boom := errors.New("disk full")
	cfg := checkpointConfig()
	cfg.Checkpoint = func(*Checkpoint) error { return boom }
	res, err := Negotiate(context.Background(), l, ix, passages, cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the hook's error", err)
	}
	if res != nil {
		t.Fatal("aborted run must not return a result")
	}
}

// TestResumeValidatesBlob: structurally inconsistent blobs fail closed.
func TestResumeValidatesBlob(t *testing.T) {
	l, ix, passages := preparedFunnel(t, 8, 2)
	var blobs []*Checkpoint
	cfg := checkpointConfig()
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(cp *Checkpoint) error { blobs = append(blobs, cp); return nil }
	if _, err := Negotiate(context.Background(), l, ix, passages, cfg); err != nil {
		t.Fatal(err)
	}
	var mid *Checkpoint
	for _, cp := range blobs {
		if cp.Pass != nil {
			mid = cp
			break
		}
	}
	if mid == nil {
		t.Fatal("no mid-pass blob in fixture")
	}
	corrupt := []func(cp *Checkpoint){
		func(cp *Checkpoint) { cp.Nets = cp.Nets[:len(cp.Nets)-1] },
		func(cp *Checkpoint) { cp.History = append(cp.History, 0) },
		func(cp *Checkpoint) { cp.Pass.Ripped = nil },
		func(cp *Checkpoint) { cp.Pass.Initial = []int{len(l.Nets)} },
		func(cp *Checkpoint) { cp.Pass.InitialPos = len(cp.Pass.Initial) + 1 },
		func(cp *Checkpoint) { cp.ReroutePass = 0 },
		func(cp *Checkpoint) { cp.PassesRecorded = -1 },
	}
	for i, mangle := range corrupt {
		cp := mid.clone()
		mangle(cp)
		if _, err := NegotiateResume(context.Background(), l, ix, passages, checkpointConfig(), cp); err == nil {
			t.Errorf("mangled blob %d resumed without error", i)
		}
	}
}

// TestNegotiatorIsolatesReroutePanics: a net whose reroute panics keeps its
// previous route, the panic is reported, and the rest of the run completes
// with a consistent map.
func TestNegotiatorIsolatesReroutePanics(t *testing.T) {
	l, ix, passages := preparedFunnel(t, 8, 2)
	defer installPanicOnNet(t, "n3")()
	res, err := Negotiate(context.Background(), l, ix, passages, checkpointConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panics) == 0 {
		t.Fatal("poisoned net produced no recorded panic")
	}
	for _, pe := range res.Panics {
		if pe.Net != "n3" {
			t.Fatalf("panic attributed to %q, want n3", pe.Net)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("recovered panic carries no stack")
		}
	}
	checkMapMatchesRoutes(t, res.Map, res.Final())
	// The poisoned net kept its (pass 1) route rather than vanishing.
	final := res.Final()
	if !final.Nets[3].Found || len(final.Nets[3].Segments) == 0 {
		t.Fatalf("poisoned net lost its carried route: %+v", final.Nets[3])
	}
}
