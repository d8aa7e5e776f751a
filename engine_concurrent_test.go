package genroute

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// TestEngineConcurrentRouteAndCommit hammers one routed session with the
// exact pattern the groutd daemon relies on: many concurrent read-side
// calls (RouteNet, Overflow, AssignTracks) racing against a writer
// that commits ECO transactions. Run under -race this pins the Engine's
// readers–writer contract; without -race it still asserts every call
// observes a consistent session (routes found, commits succeed).
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
// counters and the routing state under the shared lock while the writer
// folds the journal at every checkpoint, keeps the negotiation in flight
// across an interruption and resumes it to completion. Under -race this
// pins that every access to the journal and the installed state goes
// through the lock; every reading meanwhile must show a healthy journal.
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
