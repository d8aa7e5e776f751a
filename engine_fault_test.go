package genroute

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// The fault matrix: every injection seam (per-net route, search loop,
// negotiator rip, ECO commit) exercised with both injected errors and
// panics, asserting the engine degrades per contract — poisoned nets are
// isolated, hard errors fail closed — and stays usable afterwards.
// faultinject is process-global, so none of these tests run in parallel.

// TestEngineRouteAllIsolatesNetPanic: a panic routing one net surfaces in
// Result.Panics, the net is reported failed, and every other net routes.
func TestEngineRouteAllIsolatesNetPanic(t *testing.T) {
	victim := netName(3)
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.RouteNet && s.Label == victim {
			return faultinject.Panic
		}
		return faultinject.None
	})
	defer restore()

	e, err := NewEngine(funnelLayout(8), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAll(context.Background())
	if err != nil {
		t.Fatalf("a single poisoned net must not fail the run: %v", err)
	}
	if len(res.Panics) != 1 || res.Panics[0].Net != victim {
		t.Fatalf("panics = %+v, want exactly one for %q", res.Panics, victim)
	}
	if len(res.Panics[0].Stack) == 0 {
		t.Fatal("recovered panic carries no stack")
	}
	if len(res.Failed) != 1 || res.Failed[0] != victim {
		t.Fatalf("failed = %v, want [%s]", res.Failed, victim)
	}
	for i := range res.Nets {
		if res.Nets[i].Net != victim && !res.Nets[i].Found {
			t.Fatalf("healthy net %q not routed", res.Nets[i].Net)
		}
	}
	checkEngineConsistency(t, e)

	// Disarmed, the engine routes the poisoned net — nothing leaked.
	restore()
	nr, err := e.RouteNet(context.Background(), victim)
	if err != nil || !nr.Found {
		t.Fatalf("engine unusable after recovered panic: %v", err)
	}
	if res, err := e.RouteAll(context.Background()); err != nil || len(res.Failed) != 0 {
		t.Fatalf("full reroute after recovery: %v (failed %v)", err, res.Failed)
	}
}

// TestEngineRouteAllInjectedErrorFailsClosed: a non-panic error from a
// net route is a hard failure — no partial result, no installed state.
func TestEngineRouteAllInjectedErrorFailsClosed(t *testing.T) {
	victim := netName(2)
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.RouteNet && s.Label == victim {
			return faultinject.Error
		}
		return faultinject.None
	})
	defer restore()

	e, err := NewEngine(funnelLayout(8), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAll(context.Background())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if res != nil {
		t.Fatal("failed run returned a result")
	}
	if e.Routed() {
		t.Fatal("failed run installed session state")
	}
	restore()
	if res, err := e.RouteAll(context.Background()); err != nil || len(res.Failed) != 0 {
		t.Fatalf("engine unusable after injected error: %v", err)
	}
}

// TestEngineSearchSeamPanicIsolated: a panic at the deepest seam — inside
// the search expansion loop — is still recovered by the per-net guard.
func TestEngineSearchSeamPanicIsolated(t *testing.T) {
	// The search seam has no net label; a stateful hook poisons only the
	// first search. Workers(1) makes that deterministically the first net.
	fired := false
	defer faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.Search && !fired {
			fired = true
			return faultinject.Panic
		}
		return faultinject.None
	})()

	e, err := NewEngine(funnelLayout(8), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAll(context.Background())
	if err != nil {
		t.Fatalf("a poisoned search must not fail the run: %v", err)
	}
	if len(res.Panics) != 1 || res.Panics[0].Net != netName(0) {
		t.Fatalf("panics = %+v, want one for the first net", res.Panics)
	}
	if routed := len(res.Nets) - len(res.Failed); routed != 7 {
		t.Fatalf("routed %d nets, want 7", routed)
	}
	checkEngineConsistency(t, e)
}

// TestEngineNegotiateReroutePanicDegrades: a net whose reroute panics keeps
// its previous route while the negotiation drains around it.
func TestEngineNegotiateReroutePanicDegrades(t *testing.T) {
	victim := netName(5)
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.Reroute && s.Label == victim {
			return faultinject.Panic
		}
		return faultinject.None
	})
	defer restore()

	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteNegotiated(context.Background())
	if err != nil {
		t.Fatalf("poisoned reroute must not fail the run: %v", err)
	}
	if len(res.Panics) == 0 {
		t.Fatal("no recorded panic")
	}
	for _, pe := range res.Panics {
		if pe.Net != victim {
			t.Fatalf("panic attributed to %q, want %q", pe.Net, victim)
		}
	}
	final := res.Final()
	for i := range final.Nets {
		if !final.Nets[i].Found {
			t.Fatalf("net %q lost its route", final.Nets[i].Net)
		}
	}
	checkEngineConsistency(t, e)
	restore()
	// The degraded session still negotiates cleanly afterwards.
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatalf("engine unusable after degraded run: %v", err)
	}
	checkEngineConsistency(t, e)
}

// TestEngineNegotiateInjectedRerouteErrorFailsClosed: a hard (non-panic)
// reroute error aborts the negotiation without installing state.
func TestEngineNegotiateInjectedRerouteErrorFailsClosed(t *testing.T) {
	victim := netName(4)
	restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.Reroute && s.Label == victim {
			return faultinject.Error
		}
		return faultinject.None
	})
	defer restore()

	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteNegotiated(context.Background())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if res != nil {
		t.Fatal("aborted negotiation returned a result")
	}
	if e.Routed() {
		t.Fatal("aborted negotiation installed state")
	}
	restore()
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatalf("engine unusable after aborted negotiation: %v", err)
	}
	checkEngineConsistency(t, e)
}

// TestECOCommitFaultsLeaveEngineUntouched drives the two commit seams —
// after validation, and immediately before install — with errors and a
// panic: every failure mode must leave layout, routes, and overflow
// exactly as they were, and the engine must still commit once disarmed.
func TestECOCommitFaultsLeaveEngineUntouched(t *testing.T) {
	e, err := NewEngine(funnelLayout(8), persistOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteNegotiated(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantBox := e.Layout().Cells[0].Box
	wantLen := e.Result().TotalLength
	wantOverflow := e.Overflow()

	checkUntouched := func(t *testing.T) {
		t.Helper()
		if e.Layout().Cells[0].Box != wantBox {
			t.Fatal("failed commit mutated the layout")
		}
		if e.Result().TotalLength != wantLen || e.Overflow() != wantOverflow {
			t.Fatal("failed commit mutated the session state")
		}
		checkEngineConsistency(t, e)
	}

	for _, label := range []string{"validated", "install"} {
		t.Run("error-at-"+label, func(t *testing.T) {
			label := label
			defer faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
				if s.Point == faultinject.Commit && s.Label == label {
					return faultinject.Error
				}
				return faultinject.None
			})()
			tx := e.Edit()
			if err := tx.MoveCell("lower", 2, 0); err != nil {
				t.Fatal(err)
			}
			res, err := tx.Commit(context.Background())
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			if res != nil {
				t.Fatal("failed commit returned a result")
			}
			checkUntouched(t)
		})
	}

	t.Run("panic-before-install", func(t *testing.T) {
		defer faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
			if s.Point == faultinject.Commit && s.Label == "install" {
				return faultinject.Panic
			}
			return faultinject.None
		})()
		tx := e.Edit()
		if err := tx.MoveCell("lower", 2, 0); err != nil {
			t.Fatal(err)
		}
		res, err := tx.Commit(context.Background())
		if err == nil || !strings.Contains(err.Error(), "ECO commit panicked") {
			t.Fatalf("err = %v, want the recovered-panic error", err)
		}
		if res != nil {
			t.Fatal("panicked commit returned a result")
		}
		checkUntouched(t)
	})

	t.Run("disarmed-commit-succeeds", func(t *testing.T) {
		tx := e.Edit()
		if err := tx.MoveCell("lower", 2, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(context.Background()); err != nil {
			t.Fatalf("commit after recovered faults: %v", err)
		}
		if e.Layout().Cells[0].Box == wantBox {
			t.Fatal("successful commit did not move the cell")
		}
		checkEngineConsistency(t, e)
	})
}

// TestECORetryAfterFaultMovesAddedPinsOnce: a commit that adds a net on a
// cell and moves that cell, failed by an injected fault before install,
// leaves the staged net as it was, so the retried commit translates its
// pin once.
func TestECORetryAfterFaultMovesAddedPinsOnce(t *testing.T) {
	e, _ := routeAll(t, demoLayout(), WithWorkers(1))
	tx := e.Edit()
	if err := tx.AddNet(romTap()); err != nil {
		t.Fatal(err)
	}
	if err := tx.MoveCell("rom", 4, 0); err != nil {
		t.Fatal(err)
	}
	disarm := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.Commit && s.Label == "install" {
			return faultinject.Error
		}
		return faultinject.None
	})
	_, err := tx.Commit(context.Background())
	disarm()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if _, err := tx.Commit(context.Background()); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	nets := e.Layout().Nets
	if got := nets[len(nets)-1].Terminals[0].Pins[0].Pos; got != Pt(264, 60) {
		t.Fatalf("committed rom pin at %v, want (264,60)", got)
	}
	checkEngineConsistency(t, e)
}
