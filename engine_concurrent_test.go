package genroute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestEngineConcurrentRouteAndCommit hammers one routed session with the
// exact pattern the groutd daemon relies on: many concurrent read-side
// calls (RouteNet, Overflow, AssignTracks) racing against a writer
// that commits ECO transactions. Run under -race this pins that readers
// only load published sessions while the writer holds the token; without
// -race it still asserts every call observes a consistent session (routes
// found, commits succeed).
func TestEngineConcurrentRouteAndCommit(t *testing.T) {
	ctx := context.Background()
	e, err := NewEngine(funnelLayout(8), WithPitch(2), WithPenaltyWeight(40), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(ctx); err != nil {
		t.Fatal(err)
	}

	// The writer toggles net 0 out of and back into the layout; grab a deep
	// copy before any goroutine races on the engine's layout.
	toggled := netName(0)
	var orig Net
	for i := range e.Layout().Nets {
		if e.Layout().Nets[i].Name == toggled {
			orig = cloneNet(&e.Layout().Nets[i])
		}
	}
	if orig.Name == "" {
		t.Fatalf("fixture has no net %q", toggled)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Nets 1..7 are never edited, so every read must succeed no
			// matter how the commits interleave.
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := netName(1 + (i+g)%7)
				nr, err := e.RouteNet(ctx, name)
				if err != nil || !nr.Found {
					t.Errorf("concurrent RouteNet(%q): found=%v err=%v", name, nr.Found, err)
					return
				}
				e.Overflow()
				if !e.Routed() {
					t.Error("session lost its routed state mid-run")
					return
				}
				if _, err := e.AssignTracks(0); err != nil {
					t.Errorf("concurrent AssignTracks: %v", err)
					return
				}
			}
		}(g)
	}
	// Writer: alternate RemoveNet/AddNet commits on the same session. Ends
	// on an AddNet so the final layout matches the fixture.
	for i := 0; i < 8; i++ {
		tx := e.Edit()
		if i%2 == 0 {
			err = tx.RemoveNet(toggled)
		} else {
			err = tx.AddNet(orig)
		}
		if err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
		if _, err := tx.Commit(ctx); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	checkEngineConsistency(t, e)
}

// TestEngineConcurrentSaveDuringCheckpoints: readers poll the journal's
// counters and the routing state, taking nothing, while the writer folds
// the journal at every checkpoint, keeps the negotiation in flight across
// an interruption and resumes it to completion. Under -race this pins that
// readers touch only what is published (the installed state and the
// journal's counters) and the journal itself only under the writer token;
// every reading meanwhile must show a healthy journal.
func TestEngineConcurrentSaveDuringCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jrnl")
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, ok := e.JournalStats()
				if !ok || st.LastErr != "" || st.Bytes <= 0 {
					t.Errorf("concurrent JournalStats = %+v (journaled %v), want a healthy journal", st, ok)
					return
				}
				if res := e.Result(); res != nil && len(res.Nets) != 8 {
					t.Errorf("concurrent Result routes %d nets, want 8", len(res.Nets))
					return
				}
			}
		}()
	}
	if _, err := e.RouteNegotiated(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("interrupted run: err = %v, want context.Canceled", err)
	}
	res, err := e.RouteNegotiated(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.PassesBefore == 0 {
		t.Fatal("the second run did not resume the interrupted one")
	}
	checkEngineConsistency(t, e)
}

// TestNewEngineOnlyReadsItsLayout: NewEngine validates and prepares a
// private clone, so the caller's layout is never written — not even the
// bounding boxes Validate fills in for bare-polygon cells — and goroutines
// may build sessions over one layout at once (under -race, a write to the
// shared layout is reported).
func TestNewEngineOnlyReadsItsLayout(t *testing.T) {
	l, err := PolyChip(3, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	var bare []int
	for ci := range l.Cells {
		if len(l.Cells[ci].Poly) > 0 {
			l.Cells[ci].Box = Rect{}
			bare = append(bare, ci)
		}
	}
	if len(bare) == 0 {
		t.Fatal("fixture has no polygon cell")
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := NewEngine(l, WithWorkers(1))
			if err != nil {
				t.Error(err)
				return
			}
			for _, ci := range bare {
				if e.Layout().Cells[ci].Box == (Rect{}) {
					t.Errorf("session cell %d: bounding box not filled in", ci)
				}
			}
		}()
	}
	wg.Wait()
	for _, ci := range bare {
		if box := l.Cells[ci].Box; box != (Rect{}) {
			t.Errorf("caller's cell %d: box %v written by NewEngine, want it left zero", ci, box)
		}
	}
}

// readWait bounds how long the tests below wait for a read that must not
// wait at all: far past any read's own cost, far short of forever.
const readWait = 5 * time.Second

// TestReadsDoNotWaitForNegotiation: while RouteNegotiated is parked in its
// progress observer — mid-run, the writer token held — every read returns
// promptly and sees the session as it was before the negotiation: a
// RouteNet inside a 50 ms deadline, and RoutePoints, Result, Overflow,
// CheckConnectivity and AssignTracks.
func TestReadsDoNotWaitForNegotiation(t *testing.T) {
	ctx := context.Background()
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e, err := NewEngine(funnelLayout(8), WithPitch(2), WithPenaltyWeight(40), WithWorkers(1),
		WithProgress(func(p Progress) {
			if p.Phase == "negotiate" {
				once.Do(func() {
					close(parked)
					<-release
				})
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.RouteAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	overflow := e.Overflow()
	negotiated := make(chan error, 1)
	go func() {
		_, err := e.RouteNegotiated(ctx)
		negotiated <- err
	}()
	<-parked

	reads := make(chan struct{})
	go func() {
		defer close(reads)
		rctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		if nr, err := e.RouteNet(rctx, netName(1)); err != nil || !nr.Found {
			t.Errorf("RouteNet under a parked negotiation: found=%v err=%v, want a route inside the deadline", nr.Found, err)
		}
		if _, err := e.RoutePoints(ctx, Pt(10, 20), Pt(100, 20)); err != nil {
			t.Errorf("RoutePoints: %v", err)
		}
		if res := e.Result(); res != before {
			t.Error("Result is not the routing state installed before the negotiation")
		}
		if got := e.Overflow(); got != overflow {
			t.Errorf("Overflow = %d, want %d from before the negotiation", got, overflow)
		}
		if err := e.CheckConnectivity(); err != nil {
			t.Errorf("CheckConnectivity: %v", err)
		}
		if _, err := e.AssignTracks(0); err != nil {
			t.Errorf("AssignTracks: %v", err)
		}
	}()
	select {
	case <-reads:
	case <-time.After(readWait):
		t.Errorf("reads still waiting after %v on a parked negotiation", readWait)
	}
	close(release)
	if err := <-negotiated; err != nil {
		t.Fatal(err)
	}
	<-reads
	if e.Result() == before {
		t.Fatal("the negotiation installed nothing")
	}
}

// TestCommitDoesNotWaitForAdjustPlacement: a reader never holds the
// session against a writer, so an Edit.Commit completes while an
// AdjustPlacement is parked mid-run, and the parked run then finishes over
// the layout it loaded.
func TestCommitDoesNotWaitForAdjustPlacement(t *testing.T) {
	ctx := context.Background()
	e, err := NewEngine(funnelLayout(8), WithPitch(2), WithPenaltyWeight(40), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(ctx); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	defer faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		// AdjustPlacement routes its layout through the worker pool, which
		// fires the RouteNet seam; a commit's repair fires Reroute instead.
		if site.Point == faultinject.RouteNet {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return faultinject.None
	})()
	adjusted := make(chan error, 1)
	go func() {
		_, err := e.AdjustPlacement(ctx)
		adjusted <- err
	}()
	<-parked

	var commitErr error
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		tx := e.Edit()
		if commitErr = tx.RemoveNet(netName(0)); commitErr == nil {
			_, commitErr = tx.Commit(ctx)
		}
	}()
	select {
	case <-committed:
	case <-time.After(readWait):
		t.Errorf("commit still waiting after %v on a parked AdjustPlacement", readWait)
	}
	close(release)
	<-committed
	if commitErr != nil {
		t.Fatalf("commit beside a parked AdjustPlacement: %v", commitErr)
	}
	if err := <-adjusted; err != nil {
		t.Fatal(err)
	}
	if n := len(e.Layout().Nets); n != 7 {
		t.Fatalf("session has %d nets after the commit, want 7", n)
	}
	checkEngineConsistency(t, e)
}

// TestEngineConcurrentReadsAgainstEveryWriter: every read-side method runs
// while the writers take turns — RouteAll, a checkpointing RouteNegotiated
// interrupted and resumed, and commits that add and remove a net and move
// a cell there and back. Each read must be consistent within itself: the
// connectivity check passes on whatever state it loaded, and the nets no
// edit touches always route. Under -race this pins that nothing writes an
// installed state.
func TestEngineConcurrentReadsAgainstEveryWriter(t *testing.T) {
	ctx := context.Background()
	l := funnelLayout(8)
	// A spare cell clear of every funnel route, so moving it changes the
	// geometry without invalidating routes a reader already holds.
	l.Cells = append(l.Cells, Cell{Name: "spare", Box: R(300, 150, 320, 170)})
	var interrupt atomic.Pointer[context.CancelFunc]
	e, err := NewEngine(l, persistOpts(
		WithJournalFile(filepath.Join(t.TempDir(), "stress.jrnl")),
		WithCheckpointEvery(1),
		WithProgress(func(p Progress) {
			if p.Phase == "negotiate" && p.Pass == 2 {
				if cancel := interrupt.Swap(nil); cancel != nil {
					(*cancel)()
				}
			}
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(ctx); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reader(func(i int) error {
		name := netName(i % 8)
		nr, err := e.RouteNet(ctx, name)
		if err != nil || !nr.Found {
			return fmt.Errorf("RouteNet(%q): found=%v err=%v", name, nr.Found, err)
		}
		if err := e.Validate(&nr); err != nil {
			return fmt.Errorf("Validate(%q): %v", name, err)
		}
		if _, err := e.RoutePoints(ctx, Pt(10, 20), Pt(100, 20)); err != nil {
			return fmt.Errorf("RoutePoints: %v", err)
		}
		return nil
	})
	reader(func(int) error {
		if err := e.CheckConnectivity(); err != nil {
			return fmt.Errorf("CheckConnectivity: %v", err)
		}
		if res := e.Result(); !e.Routed() || res == nil || len(res.Nets) < 8 {
			return errors.New("Result lost the routing state")
		}
		if n := len(e.Layout().Nets); n < 8 {
			return fmt.Errorf("Layout has %d nets, want at least the 8 never edited", n)
		}
		e.Overflow()
		if _, err := e.AssignTracks(0); err != nil {
			return fmt.Errorf("AssignTracks: %v", err)
		}
		if _, err := e.AssignLayers(); err != nil {
			return fmt.Errorf("AssignLayers: %v", err)
		}
		if _, ok := e.JournalStats(); !ok {
			return errors.New("JournalStats: no journal")
		}
		return nil
	})
	reader(func(int) error {
		actx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		if _, err := e.AdjustPlacement(actx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("AdjustPlacement: %v", err)
		}
		return nil
	})

	for round := 0; round < 2; round++ {
		if _, err := e.RouteAll(ctx); err != nil {
			t.Fatal(err)
		}
		nctx, cancel := context.WithCancel(ctx)
		interrupt.Store(&cancel)
		_, err := e.RouteNegotiated(nctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: interrupted negotiation: err = %v, want context.Canceled", round, err)
		}
		res, err := e.RouteNegotiated(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.PassesBefore == 0 {
			t.Fatalf("round %d: the second run did not resume the interrupted one", round)
		}
		extra := padNet("extra", 64, 400)
		for _, stage := range []func(tx *Edit) error{
			func(tx *Edit) error { return tx.AddNet(extra) },
			func(tx *Edit) error { return tx.MoveCell("spare", 0, 10) },
			func(tx *Edit) error { return tx.RemoveNet("extra") },
			func(tx *Edit) error { return tx.MoveCell("spare", 0, -10) },
		} {
			commitOps(t, e, stage)
		}
	}
	close(stop)
	wg.Wait()
	checkEngineConsistency(t, e)
}

// TestWritersWaitUnderTheirContext: while RouteNegotiated is parked in its
// progress observer, holding the writer token, RouteAll, RouteNegotiated
// and Edit.Commit under a 50 ms deadline each give up with
// context.DeadlineExceeded, having installed and appended nothing, and
// JournalStats answers without the token.
func TestWritersWaitUnderTheirContext(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "s.jrnl")
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e, err := NewEngine(funnelLayout(8), WithPitch(2), WithPenaltyWeight(40), WithWorkers(1),
		WithJournalFile(path),
		WithProgress(func(p Progress) {
			if p.Phase == "negotiate" {
				once.Do(func() {
					close(parked)
					<-release
				})
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.RouteAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	layout := e.Layout()
	journaled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := e.JournalStats()
	negotiated := make(chan error, 1)
	go func() {
		_, err := e.RouteNegotiated(ctx)
		negotiated <- err
	}()
	<-parked

	writes := []struct {
		name  string
		write func(context.Context) (bool, error) // reports a non-nil result
	}{
		{"RouteAll", func(ctx context.Context) (bool, error) {
			res, err := e.RouteAll(ctx)
			return res != nil, err
		}},
		{"RouteNegotiated", func(ctx context.Context) (bool, error) {
			res, err := e.RouteNegotiated(ctx)
			return res != nil, err
		}},
		{"Edit.Commit", func(ctx context.Context) (bool, error) {
			tx := e.Edit()
			if err := tx.RemoveNet(netName(0)); err != nil {
				return false, err
			}
			res, err := tx.Commit(ctx)
			return res != nil, err
		}},
	}
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		for _, w := range writes {
			wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			got, err := w.write(wctx)
			cancel()
			if got || !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s beside a parked negotiation: result %v, err %v; want none and context.DeadlineExceeded", w.name, got, err)
			}
		}
		if st, ok := e.JournalStats(); !ok || st != stats {
			t.Errorf("JournalStats beside a parked negotiation = %+v (journaled %v), want %+v", st, ok, stats)
		}
	}()
	select {
	case <-waited:
		if e.Result() != before || e.Layout() != layout {
			t.Error("a writer that gave up installed a session")
		}
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, journaled) {
			t.Errorf("a writer that gave up changed the journal (read err %v)", err)
		}
	case <-time.After(readWait):
		t.Errorf("writers still waiting after %v on a parked negotiation", readWait)
	}
	close(release)
	if err := <-negotiated; err != nil {
		t.Fatal(err)
	}
	<-waited
	checkEngineConsistency(t, e)
}

// TestRetiredEngineRefusesWriters: CloseJournal retires the engine. Its
// writers then fail at once with ErrRetired and leave the journal as the
// close left it, its reads keep working, and a second CloseJournal returns
// nil.
func TestRetiredEngineRefusesWriters(t *testing.T) {
	ctx := context.Background()
	e, path := journaledEngine(t, 2)
	tx := e.Edit()
	if err := tx.AddNet(padNet("late", 5, e.Layout().Bounds.MaxX)); err != nil {
		t.Fatal(err)
	}
	before := e.Result()
	if err := e.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	closed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(ctx); !errors.Is(err, ErrRetired) {
		t.Errorf("RouteAll on a retired engine: err = %v, want ErrRetired", err)
	}
	if _, err := e.RouteNegotiated(ctx); !errors.Is(err, ErrRetired) {
		t.Errorf("RouteNegotiated on a retired engine: err = %v, want ErrRetired", err)
	}
	if _, err := tx.Commit(ctx); !errors.Is(err, ErrRetired) {
		t.Errorf("Edit.Commit on a retired engine: err = %v, want ErrRetired", err)
	}
	if err := e.CloseJournal(); err != nil {
		t.Errorf("second CloseJournal: %v", err)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, closed) {
		t.Errorf("writers on a retired engine changed its journal (read err %v)", err)
	}
	if e.Result() != before {
		t.Error("a refused writer installed a session")
	}
	if st, ok := e.JournalStats(); !ok || st.LastErr != "" {
		t.Errorf("JournalStats on a retired engine = %+v (journaled %v), want the healthy closed journal", st, ok)
	}
	checkEngineConsistency(t, e)
}
