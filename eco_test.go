package genroute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// routesByName collects each net's canonical segment list.
func routesByName(res *Result) map[string][]Seg {
	out := make(map[string][]Seg, len(res.Nets))
	for i := range res.Nets {
		out[res.Nets[i].Net] = res.Nets[i].SortedSegments()
	}
	return out
}

func sameSegs(a, b []Seg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gridScene is an uncongested macro grid: capacity is generous (pitch 1),
// so no passage is at capacity and the strong ECO equivalence holds.
func gridScene(t testing.TB, n int) *Layout {
	t.Helper()
	l, err := GridOfMacros(n, n, 60, 40, 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// padNet builds a two-pad net crossing the die.
func padNet(name string, y int64, maxX int64) Net {
	return Net{
		Name: name,
		Terminals: []Terminal{
			{Name: "w", Pins: []Pin{{Name: "p", Pos: Pt(0, y), Cell: NoCell}}},
			{Name: "e", Pins: []Pin{{Name: "p", Pos: Pt(maxX, y), Cell: NoCell}}},
		},
	}
}

// TestECOAddRemoveEquivalence is the strong guarantee: with no passage at
// capacity, a commit of additions and removals yields exactly the routing a
// from-scratch engine produces on the edited layout — every net, not just
// the untouched ones, because the live penalty prices nothing.
func TestECOAddRemoveEquivalence(t *testing.T) {
	l := gridScene(t, 3)
	e, err := NewEngine(l, WithPitch(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Overflow() != 0 {
		t.Fatalf("scene must be uncongested, overflow %d", e.Overflow())
	}
	m := e.st.Load().m
	for pi, u := range m.Usage {
		if u >= m.Passages[pi].Capacity {
			t.Fatalf("passage %d at capacity (%d/%d); pick a larger capacity scene",
				pi, u, m.Passages[pi].Capacity)
		}
	}

	tx := e.Edit()
	if err := tx.RemoveNet(l.Nets[1].Name); err != nil {
		t.Fatal(err)
	}
	if err := tx.RemoveNet(l.Nets[4].Name); err != nil {
		t.Fatal(err)
	}
	maxX := l.Bounds.MaxX
	if err := tx.AddNet(padNet("eco_a", 7, maxX)); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddNet(padNet("eco_b", 13, maxX)); err != nil {
		t.Fatal(err)
	}
	eco, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !eco.Converged {
		t.Fatal("uncongested commit must converge")
	}
	if len(eco.Dirty) != 2 {
		t.Fatalf("dirty = %v, want the two added nets", eco.Dirty)
	}
	checkEngineConsistency(t, e)
	if err := e.CheckConnectivity(); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewEngine(e.Layout(), WithPitch(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fresh.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := routesByName(e.Result())
	want := routesByName(fres.Final())
	if len(got) != len(want) {
		t.Fatalf("net count: eco %d, scratch %d", len(got), len(want))
	}
	for name, w := range want {
		if !sameSegs(got[name], w) {
			t.Fatalf("net %q: ECO route differs from from-scratch route", name)
		}
	}
}

// TestECOMoveCell checks the geometry-change path: pins ride the cell, the
// cell's nets and any blocked victims reroute, everything else is stable.
func TestECOMoveCell(t *testing.T) {
	l := gridScene(t, 3)
	e, err := NewEngine(l, WithPitch(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := routesByName(e.Result())

	tx := e.Edit()
	cellName := e.Layout().Cells[4].Name // center macro
	if err := tx.MoveCell(cellName, 10, 6); err != nil {
		t.Fatal(err)
	}
	eco, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkEngineConsistency(t, e)
	if err := e.CheckConnectivity(); err != nil {
		t.Fatal(err)
	}
	if e.Layout().Cells[4].Box == l.Cells[4].Box {
		t.Fatal("cell did not move")
	}
	// Every net with a pin on the moved cell must be in the dirty set.
	dirty := map[string]bool{}
	for _, n := range eco.Dirty {
		dirty[n] = true
	}
	for i := range e.Layout().Nets {
		n := &e.Layout().Nets[i]
		touches := false
		for ti := range n.Terminals {
			for _, p := range n.Terminals[ti].Pins {
				if p.Cell == 4 {
					touches = true
				}
			}
		}
		if touches && !dirty[n.Name] {
			t.Fatalf("net %q has a pin on the moved cell but is not dirty", n.Name)
		}
	}
	// Untouched nets (not dirty, not rerouted in any repair pass) keep
	// byte-identical routes — the stability an ECO exists for.
	rerouted := map[string]bool{}
	for _, p := range eco.Repair.Passes {
		for _, name := range p.Rerouted {
			rerouted[name] = true
		}
	}
	after := routesByName(e.Result())
	stable := 0
	for name, segs := range after {
		if dirty[name] || rerouted[name] {
			continue
		}
		if !sameSegs(segs, before[name]) {
			t.Fatalf("untouched net %q changed across the move", name)
		}
		stable++
	}
	if stable == 0 {
		t.Fatal("no untouched nets — scene too small to be meaningful")
	}

	// The corner rule probes cell boundaries, so a move must rebind it to
	// the edited index — for the repair and for the session router — and a
	// reload must bind it to the rebuilt one. On this macro grid the rule
	// decides some routes after the move, so a rule left on the pre-move
	// index would route those nets unlike a fresh engine over the edited
	// layout.
	ml, err := MacroGrid(4, 4, 40, 30, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ec.jrnl")
	ec, err := NewEngine(ml, WithCornerRule(), WithWorkers(1), WithJournalFile(path), withJournalCompaction(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	tx = ec.Edit()
	if err := tx.MoveCell(ec.Layout().Cells[5].Name, 3, 2); err != nil {
		t.Fatal(err)
	}
	eco, err = tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The commit folded the journal, so the reload restores the base that
	// carries the moved layout, index rebuilt, rather than replaying.
	if st, _ := ec.JournalStats(); st.Records != 0 {
		t.Fatalf("journal holds %d records after the move, want it folded", st.Records)
	}
	reloaded, err := LoadEngineJournal(path, ml, WithCornerRule(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(ec.Layout(), WithCornerRule(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEngine(ec.Layout(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	routeNet := func(e *Engine, name string) []Seg {
		nr, err := e.RouteNet(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		return nr.SortedSegments()
	}
	session := routesByName(ec.Result())
	ruled := 0
	for i := range ec.Layout().Nets {
		name := ec.Layout().Nets[i].Name
		want := routeNet(fresh, name)
		if !sameSegs(routeNet(ec, name), want) {
			t.Fatalf("net %q: edited engine routes it unlike a fresh corner-rule engine", name)
		}
		if !sameSegs(routeNet(reloaded, name), want) {
			t.Fatalf("net %q: reloaded engine routes it unlike a fresh corner-rule engine", name)
		}
		if !sameSegs(routeNet(plain, name), want) {
			ruled++
		}
	}
	for _, name := range eco.Dirty {
		if !sameSegs(session[name], routeNet(fresh, name)) {
			t.Fatalf("dirty net %q: repaired route differs from a fresh corner-rule route", name)
		}
	}
	if ruled == 0 {
		t.Fatal("the corner rule decides no route after the move; the scene cannot tell")
	}
}

// TestECOSequentialMoves commits several MoveCell transactions in a row,
// moving some cells again and several at once. After each, the index and
// the spans must still be the layout's own, id for id.
func TestECOSequentialMoves(t *testing.T) {
	l := gridScene(t, 3)
	e, err := NewEngine(l, WithPitch(1), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	moves := [][]struct {
		cell   int
		dx, dy int64
	}{
		{{0, 5, 0}},            // commit 1: move cell 0
		{{0, 0, 4}, {5, 3, 0}}, // commit 2: move it again plus a higher-id cell
		{{7, -4, -2}, {2, 0, 3}},
		{{0, -5, -4}, {5, -3, 0}, {7, 4, 2}},
	}
	for step, batch := range moves {
		tx := e.Edit()
		for _, mv := range batch {
			if err := tx.MoveCell(e.Layout().Cells[mv.cell].Name, mv.dx, mv.dy); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkEngineConsistency(t, e) // includes the index-vs-layout audit
		if err := e.CheckConnectivity(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestECOCommitPassagesMatchFreshExtract pins the incremental passage
// splice at the public API level: after every MoveCell commit — including
// repeated moves of one cell and multi-cell commits — the session's
// passage tables must be exactly what a fresh engine extracts from the
// edited layout (congest.Extract from scratch): same corridors, same
// Between ids, same widths and capacities, same canonical order.
func TestECOCommitPassagesMatchFreshExtract(t *testing.T) {
	l := gridScene(t, 3)
	e, err := NewEngine(l, WithPitch(4), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	moves := [][]struct {
		cell   int
		dx, dy int64
	}{
		{{4, 10, 6}},           // center macro: splices corridors on all four sides
		{{0, 5, 0}},            // corner macro: boundary strips change too
		{{0, 0, 4}, {5, 3, 0}}, // multi-cell commit, cell 0 moved again
		{{7, -4, -2}, {2, 0, 3}},
	}
	for step, batch := range moves {
		tx := e.Edit()
		for _, mv := range batch {
			if err := tx.MoveCell(e.Layout().Cells[mv.cell].Name, mv.dx, mv.dy); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		fresh, err := NewEngine(e.Layout(), WithPitch(4), WithWorkers(1))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkPassages(t, fmt.Sprintf("step %d: spliced against fresh", step),
			e.st.Load().passages, fresh.st.Load().passages)
	}
}

// TestECOStagingValidation covers the transaction's name-level checks and
// the commit-time geometric rejection.
func TestECOStagingValidation(t *testing.T) {
	e, err := NewEngine(demoLayout())
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Edit()
	if _, err := tx.Commit(context.Background()); err == nil {
		t.Fatal("commit without a routed session must error")
	}
	if _, err := e.RouteAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	tx = e.Edit()
	if err := tx.AddNet(Net{}); err == nil {
		t.Fatal("unnamed net accepted")
	}
	if err := tx.AddNet(Net{Name: "bus"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := tx.RemoveNet("nope"); err == nil {
		t.Fatal("unknown removal accepted")
	}
	if err := tx.MoveCell("nope", 1, 1); err == nil {
		t.Fatal("unknown cell accepted")
	}
	// Remove-then-re-add with new pins is the in-place change idiom.
	if err := tx.RemoveNet("bus"); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddNet(padNet("bus", 10, 300)); err != nil {
		t.Fatal(err)
	}
	if tx.Len() != 2 {
		t.Fatalf("staged %d ops, want 2", tx.Len())
	}
	// Removing a staged addition drops it again.
	if err := tx.RemoveNet("bus"); err != nil {
		t.Fatal(err)
	}
	if tx.Len() != 1 {
		t.Fatalf("staged %d ops, want 1", tx.Len())
	}

	// A move that collides cells must fail atomically: engine unchanged.
	tx2 := e.Edit()
	if err := tx2.MoveCell("alu", 1000, 0); err != nil {
		t.Fatal(err) // staging accepts; geometry is checked at commit
	}
	beforeNets := len(e.Layout().Nets)
	if _, err := tx2.Commit(context.Background()); err == nil {
		t.Fatal("out-of-bounds move committed")
	}
	if len(e.Layout().Nets) != beforeNets || !e.Routed() {
		t.Fatal("failed commit mutated the engine")
	}
	checkEngineConsistency(t, e)
}

// TestECOCongestedRepair drives an edit into a congested funnel: the added
// nets overflow the slit and the repair must negotiate it back down,
// pulling victim nets in worklist-style.
func TestECOCongestedRepair(t *testing.T) {
	e, err := NewEngine(funnelLayout(3),
		WithPitch(2), WithPenaltyWeight(150), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Overflow() != 0 {
		t.Fatal("3 nets fit the slit")
	}
	tx := e.Edit()
	for i := 0; i < 4; i++ {
		if err := tx.AddNet(padNet(fmt.Sprintf("extra%d", i), int64(100+4*i), 400)); err != nil {
			t.Fatal(err)
		}
	}
	eco, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !eco.Converged {
		t.Fatalf("repair should drain the slit, overflow %d", e.Overflow())
	}
	checkEngineConsistency(t, e)
	if err := e.CheckConnectivity(); err != nil {
		t.Fatal(err)
	}
}

// TestECOCommitReportsRepairProgress: a commit's repair passes reach the
// progress observer as phase "eco", numbered from 1 within the commit, and
// counted against the edited layout's nets, not the session's before it.
func TestECOCommitReportsRepairProgress(t *testing.T) {
	var events []Progress
	e, err := NewEngine(funnelLayout(3), WithPitch(2), WithPenaltyWeight(40), WithWorkers(1),
		WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	events = nil
	tx := e.Edit()
	if err := tx.RemoveNet(netName(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tx.AddNet(padNet(fmt.Sprintf("extra%d", i), int64(100+4*i), 400)); err != nil {
			t.Fatal(err)
		}
	}
	eco, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	passes := eco.Repair.Passes
	if len(passes) < 2 || len(events) != len(passes) {
		t.Fatalf("observer saw %d events, the repair recorded %d passes", len(events), len(passes))
	}
	for i, ev := range events {
		if ev.Phase != "eco" || ev.Pass != i+1 || ev.NetsTotal != 6 {
			t.Fatalf("event %d = %+v, want phase eco, pass %d, 6 nets", i, ev, i+1)
		}
		if ev.Overflow != passes[i].Overflow || ev.Rerouted != len(passes[i].Rerouted) {
			t.Fatalf("event %d = %+v, pass says %+v", i, ev, passes[i])
		}
	}
}

// TestECOCancelMidCommit cancels a commit and checks the documented
// contract: the partial state is installed and consistent.
func TestECOCancelMidCommit(t *testing.T) {
	e, err := NewEngine(funnelLayout(3), WithPitch(2), WithPenaltyWeight(150), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tx := e.Edit()
	if err := tx.AddNet(padNet("late", 100, 400)); err != nil {
		t.Fatal(err)
	}
	eco, err := tx.Commit(ctx)
	if err == nil {
		t.Fatal("cancelled commit must return the context error")
	}
	if eco == nil {
		t.Fatal("cancelled commit must return the partial result")
	}
	// The engine moved to the edited layout with a consistent state; the
	// added net is simply not routed yet.
	checkEngineConsistency(t, e)
	if _, ok := e.st.Load().netIdx["late"]; !ok {
		t.Fatal("edited layout not installed")
	}
}

// TestECORandomizedEquivalence drives random edit sequences over an
// uncongested scene and checks the session invariants plus the strong
// from-scratch equivalence after every commit.
func TestECORandomizedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			l := gridScene(t, 3)
			e, err := NewEngine(l, WithPitch(1), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RouteNegotiated(context.Background()); err != nil {
				t.Fatal(err)
			}
			added := 0
			for step := 0; step < 4; step++ {
				tx := e.Edit()
				ops := r.Intn(3) + 1
				for k := 0; k < ops; k++ {
					switch r.Intn(2) {
					case 0:
						added++
						y := int64(3 + r.Intn(18))
						if err := tx.AddNet(padNet(fmt.Sprintf("rnd%d", added), y, l.Bounds.MaxX)); err != nil {
							t.Fatal(err)
						}
					case 1:
						nets := e.Layout().Nets
						name := nets[r.Intn(len(nets))].Name
						if tx.netExists(name) {
							if err := tx.RemoveNet(name); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if _, err := tx.Commit(context.Background()); err != nil {
					t.Fatal(err)
				}
				checkEngineConsistency(t, e)
				if err := e.CheckConnectivity(); err != nil {
					t.Fatal(err)
				}
			}
			// End-state equivalence against a from-scratch engine.
			fresh, err := NewEngine(e.Layout(), WithPitch(1), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			fres, err := fresh.RouteNegotiated(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, want := routesByName(e.Result()), routesByName(fres.Final())
			for name, w := range want {
				if !sameSegs(got[name], w) {
					t.Fatalf("net %q: ECO route differs from from-scratch", name)
				}
			}
		})
	}
}

// FuzzECOEdits drives arbitrary edit scripts and checks that the session
// invariants survive: map consistency, route legality, connectivity. The
// edited layout is also built from the script independently of the engine,
// and whole-layout Validate is the oracle for the commit's verdict: the
// commit succeeds iff Validate accepts that layout, installs exactly it,
// and on a rejection wraps Validate's error text. Either way the layout
// installed before the commit keeps its fingerprint.
func FuzzECOEdits(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{1, 0, 0, 3, 2, 9})
	f.Add([]byte{2, 2, 2, 1, 1, 0})
	// 24 moves of one cell by (3,-2) drive it into its neighbours, so the
	// seed corpus also reaches the rejection verdict.
	f.Add(bytes.Repeat([]byte{20}, 24))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		l := gridScene(t, 2)
		e, err := NewEngine(l, WithPitch(1), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RouteAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		tx := e.Edit()
		want := stagedLayout{base: e.Layout(), moves: map[string]Point{}, removed: map[string]bool{}}
		added := 0
		for i, b := range script {
			switch b % 3 {
			case 0:
				added++
				y := int64(1 + int(b/3)%20)
				n := padNet(fmt.Sprintf("f%d_%d", i, added), y, l.Bounds.MaxX)
				if tx.AddNet(n) == nil {
					want.adds = append(want.adds, n)
				}
			case 1:
				nets := e.Layout().Nets
				if len(nets) > 0 {
					name := nets[int(b/3)%len(nets)].Name
					if tx.RemoveNet(name) == nil {
						want.removed[name] = true
					}
				}
			case 2:
				cells := e.Layout().Cells
				name := cells[int(b/3)%len(cells)].Name
				d := Pt(int64(b%7)-3, int64(b%5)-2)
				if tx.MoveCell(name, d.X, d.Y) == nil {
					want.moves[name] = want.moves[name].Add(d)
				}
			}
		}
		wl := want.build()
		verr := wl.Clone().Validate()
		// The commit builds on the installed layout; accepted or rejected,
		// moves included, it must not write through it.
		prev := e.Layout()
		prevHash := snapshot.LayoutHash(prev)
		_, err = tx.Commit(context.Background())
		if got := snapshot.LayoutHash(prev); got != prevHash {
			t.Fatalf("the pre-commit layout fingerprints %016x after the commit, %016x before", got, prevHash)
		}
		if err != nil {
			if verr == nil {
				t.Fatalf("commit rejected a layout Validate accepts: %v", err)
			}
			if u := errors.Unwrap(err); u == nil || u.Error() != verr.Error() {
				t.Fatalf("commit error %q does not wrap Validate's %q", err, verr)
			}
			// The engine must be untouched and still consistent.
			checkEngineConsistency(t, e)
			return
		}
		if verr != nil {
			t.Fatalf("commit accepted a layout Validate rejects: %v", verr)
		}
		if got, want := snapshot.LayoutHash(e.Layout()), snapshot.LayoutHash(wl); got != want {
			t.Fatalf("committed layout fingerprints %016x, the script's edit %016x", got, want)
		}
		checkEngineConsistency(t, e)
		if err := e.CheckConnectivity(); err != nil {
			t.Fatal(err)
		}
	})
}

// stagedLayout is FuzzECOEdits' model of an edit, built from the script
// without the engine: the staged additions, removals and accumulated cell
// moves over the pre-edit layout.
type stagedLayout struct {
	base    *Layout
	adds    []Net
	removed map[string]bool
	moves   map[string]Point
}

// build returns the edited layout: the kept nets in order, then the
// additions, with every moved cell translated together with the pins on it.
func (s *stagedLayout) build() *Layout {
	l := s.base.Clone()
	kept := l.Nets[:0]
	for _, n := range l.Nets {
		if !s.removed[n.Name] {
			kept = append(kept, n)
		}
	}
	for i := range s.adds {
		kept = append(kept, cloneNet(&s.adds[i]))
	}
	l.Nets = kept
	for ci := range l.Cells {
		d := s.moves[l.Cells[ci].Name]
		c := &l.Cells[ci]
		c.Box = c.Box.Translate(d)
		for vi := range c.Poly {
			c.Poly[vi] = c.Poly[vi].Add(d)
		}
		for ni := range l.Nets {
			for ti := range l.Nets[ni].Terminals {
				pins := l.Nets[ni].Terminals[ti].Pins
				for pi := range pins {
					if int(pins[pi].Cell) == ci {
						pins[pi].Pos = pins[pi].Pos.Add(d)
					}
				}
			}
		}
	}
	return l
}

// TestECOMacroGridDemo is the acceptance demo: on MacroGrid 32×32,
// rerouting after a 5-net ECO edit must complete in a small fraction of the
// from-scratch RouteNegotiated time, with byte-identical routes for every
// unedited net.
func TestECOMacroGridDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("macro-scale demo skipped in -short mode")
	}
	l, err := MacroGrid(32, 32, 40, 30, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Pitch 1 gives every passage ample capacity: the scene routes clean
	// in one pass, isolating the ECO-vs-scratch comparison from
	// negotiation noise.
	newEng := func() (*Engine, *NegotiatedResult, time.Duration) {
		start := time.Now()
		e, err := NewEngine(l, WithPitch(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RouteNegotiated(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return e, res, time.Since(start)
	}
	e, res, scratchTime := newEng()
	if !res.Converged {
		t.Fatalf("demo scene should be uncongested, overflow %d", res.Map.TotalOverflow())
	}
	before := routesByName(e.Result())

	// The 5-net ECO edit: rip five nets out and re-add them with fresh
	// names (same pins), forcing exactly those to reroute.
	tx := e.Edit()
	edited := map[string]bool{}
	for i := 0; i < 5; i++ {
		n := e.Layout().Nets[100*i+7]
		edited[n.Name] = true
		cp := cloneNet(&n)
		cp.Name = fmt.Sprintf("eco_%s", n.Name)
		edited[cp.Name] = true
		if err := tx.RemoveNet(n.Name); err != nil {
			t.Fatal(err)
		}
		if err := tx.AddNet(cp); err != nil {
			t.Fatal(err)
		}
	}
	ecoStart := time.Now()
	eco, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ecoTime := time.Since(ecoStart)
	if !eco.Converged {
		t.Fatal("commit did not converge")
	}
	if len(eco.Dirty) != 5 {
		t.Fatalf("dirty = %d nets, want 5", len(eco.Dirty))
	}

	// Byte-identity for the unedited nets against a from-scratch route of
	// the edited layout.
	fresh, err := NewEngine(e.Layout(), WithPitch(1))
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fresh.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, want := routesByName(e.Result()), routesByName(fres.Final())
	checked := 0
	for name, w := range want {
		if edited[name] {
			continue
		}
		if !sameSegs(got[name], w) {
			t.Fatalf("unedited net %q differs from from-scratch", name)
		}
		if !sameSegs(got[name], before[name]) {
			t.Fatalf("unedited net %q changed across the commit", name)
		}
		checked++
	}
	if checked < 2000 {
		t.Fatalf("only %d unedited nets compared", checked)
	}

	t.Logf("from-scratch %v, 5-net ECO commit %v (%.1f%%)",
		scratchTime.Round(time.Millisecond), ecoTime.Round(time.Millisecond),
		100*float64(ecoTime)/float64(scratchTime))
	// The acceptance bar is <10%; assert a generous 50% so a loaded CI
	// box cannot flake the suite while a real regression still fails.
	if ecoTime*2 > scratchTime {
		t.Fatalf("ECO commit took %v, more than half the from-scratch %v", ecoTime, scratchTime)
	}
}
