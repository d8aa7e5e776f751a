package genroute

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/snapshot"
)

// TestECOCommitSharesUnchangedLayout pins what a commit copies, without
// timing anything: the installed layout shares every cell and net the edit
// left alone with the layout it replaced, and only the edited parts are new.
// Every cell has a polygon outline, so outline storage is checked too.
func TestECOCommitSharesUnchangedLayout(t *testing.T) {
	l := gridScene(t, 3)
	for i := range l.Cells {
		b := l.Cells[i].Box
		l.Cells[i].Poly = []Point{Pt(b.MinX, b.MinY), Pt(b.MaxX, b.MinY), Pt(b.MaxX, b.MaxY), Pt(b.MinX, b.MaxY)}
	}
	e, err := NewEngine(l, WithPitch(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	commit := func(tx *Edit) {
		t.Helper()
		if _, err := tx.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// A net-only commit shares the cell slice and every kept net's terminals.
	old := e.Layout()
	oldNet := make(map[string]*Net, len(old.Nets))
	for i := range old.Nets {
		oldNet[old.Nets[i].Name] = &old.Nets[i]
	}
	tx := e.Edit()
	if err := tx.RemoveNet(old.Nets[1].Name); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddNet(padNet("added", 5, old.Bounds.MaxX)); err != nil {
		t.Fatal(err)
	}
	commit(tx)
	cur := e.Layout()
	if &cur.Cells[0] != &old.Cells[0] {
		t.Fatal("a net-only commit copied the cell slice")
	}
	kept := 0
	for i := range cur.Nets {
		n := &cur.Nets[i]
		o, ok := oldNet[n.Name]
		if !ok {
			continue // the added net
		}
		kept++
		if &n.Terminals[0] != &o.Terminals[0] {
			t.Fatalf("kept net %q has new terminal storage", n.Name)
		}
	}
	if kept != len(old.Nets)-1 {
		t.Fatalf("%d kept nets, want %d", kept, len(old.Nets)-1)
	}

	// A move copies the cell slice, the moved cell's outline and the nets
	// with a pin on that cell, and nothing else.
	old = cur
	oldHash := snapshot.LayoutHash(old)
	const moved = 4
	tx = e.Edit()
	if err := tx.MoveCell(old.Cells[moved].Name, 10, 6); err != nil {
		t.Fatal(err)
	}
	commit(tx)
	cur = e.Layout()
	if &cur.Cells[0] == &old.Cells[0] {
		t.Fatal("a move shares the cell slice it translated a cell of")
	}
	for ci := range cur.Cells {
		if shared := &cur.Cells[ci].Poly[0] == &old.Cells[ci].Poly[0]; shared == (ci == moved) {
			t.Fatalf("cell %d: outline shared = %v after moving cell %d", ci, shared, moved)
		}
	}
	pinned := 0
	for i := range cur.Nets {
		onMoved := false
		for _, term := range old.Nets[i].Terminals {
			for _, p := range term.Pins {
				onMoved = onMoved || p.Cell == moved
			}
		}
		if onMoved {
			pinned++
		}
		if shared := &cur.Nets[i].Terminals[0] == &old.Nets[i].Terminals[0]; shared == onMoved {
			t.Fatalf("net %q: terminals shared = %v, pin on the moved cell = %v", cur.Nets[i].Name, shared, onMoved)
		}
	}
	if pinned == 0 {
		t.Fatal("no net has a pin on the moved cell; the check above proves nothing")
	}
	if got := snapshot.LayoutHash(old); got != oldHash {
		t.Fatalf("the move wrote through the layout it replaced: fingerprint %016x, was %016x", got, oldHash)
	}
}

// TestECOCommitsLeavePublishedLayoutsAlone walks layouts published before
// a commit while net and move commits run, on a journaled session so the
// commit's fingerprint goroutine runs too. Under -race a write through
// storage a commit shares with an older layout is reported as a race;
// without it, a walk's fingerprint would change.
func TestECOCommitsLeavePublishedLayoutsAlone(t *testing.T) {
	e, err := NewEngine(gridScene(t, 3), WithPitch(1), WithWorkers(1),
		WithJournalFile(filepath.Join(t.TempDir(), "eco.jrnl")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		done    atomic.Bool
		changed atomic.Int32
	)
	defer func() {
		done.Store(true)
		wg.Wait()
		if n := changed.Load(); n > 0 {
			t.Errorf("%d walks saw a published layout change", n)
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				l := e.Layout()
				h := snapshot.LayoutHash(l)
				for k := 0; k < 4; k++ {
					runtime.Gosched()
					if snapshot.LayoutHash(l) != h {
						changed.Add(1)
					}
				}
			}
		}()
	}
	cell := e.Layout().Cells[4].Name
	for i := 0; i < 16; i++ {
		tx := e.Edit()
		if i%2 == 0 {
			dx := int64(4)
			if i%4 == 2 {
				dx = -4 // back again, so the cell never nears its neighbours
			}
			if err := tx.MoveCell(cell, dx, 2*dx); err != nil {
				t.Fatal(err)
			}
		} else {
			l := e.Layout()
			n := l.Nets[i%len(l.Nets)]
			if err := tx.RemoveNet(n.Name); err != nil {
				t.Fatal(err)
			}
			n.Name = fmt.Sprintf("re%d", i)
			if err := tx.AddNet(n); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
