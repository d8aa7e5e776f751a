package router

import (
	"context"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/plane"
)

// poisonNets arms the harness to panic at the per-net route seam for the
// named nets. faultinject is process-global: no t.Parallel here.
func poisonNets(names ...string) func() {
	return faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
		if s.Point == faultinject.RouteNet {
			for _, n := range names {
				if s.Label == n {
					return faultinject.Panic
				}
			}
		}
		return faultinject.None
	})
}

// TestPoolIsolatesNetPanics: a panicking net must not unwind the pool —
// for any worker count it ends up not-Found with a recovered *PanicError,
// and every healthy net still routes.
func TestPoolIsolatesNetPanics(t *testing.T) {
	l := layoutFixture()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	r := New(ix, Options{})
	for _, workers := range []int{1, 4} {
		defer poisonNets("n1")()
		res, err := r.RouteLayoutCtx(context.Background(), l, workers)
		if err != nil {
			t.Fatalf("workers=%d: poisoned net failed the run: %v", workers, err)
		}
		if len(res.Panics) != 1 || res.Panics[0].Net != "n1" {
			t.Fatalf("workers=%d: panics = %+v", workers, res.Panics)
		}
		pe := res.Panics[0]
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if !strings.Contains(pe.Error(), "n1") {
			t.Fatalf("workers=%d: error %q does not name the net", workers, pe.Error())
		}
		if len(res.Failed) != 1 || res.Failed[0] != "n1" {
			t.Fatalf("workers=%d: failed = %v", workers, res.Failed)
		}
		for i := range res.Nets {
			nr := &res.Nets[i]
			if nr.Net == "n1" {
				if nr.Found || len(nr.Segments) != 0 {
					t.Fatalf("workers=%d: poisoned slot not reset: %+v", workers, nr)
				}
				continue
			}
			if !nr.Found {
				t.Fatalf("workers=%d: healthy net %q unrouted", workers, nr.Net)
			}
			if err := r.Validate(nr); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
	}
}

// TestPoolPanicsSortedDeterministically: with several poisoned nets the
// recovered panics come back ordered by net name for any worker schedule.
func TestPoolPanicsSortedDeterministically(t *testing.T) {
	l := layoutFixture()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		t.Fatal(err)
	}
	r := New(ix, Options{})
	defer poisonNets("n2", "n0")()
	for trial := 0; trial < 4; trial++ {
		res, err := r.RouteLayoutCtx(context.Background(), l, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Panics) != 2 || res.Panics[0].Net != "n0" || res.Panics[1].Net != "n2" {
			t.Fatalf("trial %d: panics not sorted by net: %+v", trial, res.Panics)
		}
	}
}
