package search

import (
	"errors"
	"testing"
)

// closedDone returns an already-closed cancellation channel.
func closedDone() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// latticeProblem is an unbounded 2D lattice: every search on it runs until a
// budget or a cancellation stops it, which makes it the cancellation
// fixture.
type latticeProblem struct{}

type cell struct{ x, y int }

func (latticeProblem) Start() cell         { return cell{} }
func (latticeProblem) IsGoal(cell) bool    { return false }
func (latticeProblem) Heuristic(cell) Cost { return 0 }
func (latticeProblem) Hash(s cell) uint64  { return uint64(s.x)<<32 ^ uint64(s.y) }
func (latticeProblem) Successors(s cell, out *Offers[cell]) {
	out.Emit(cell{s.x + 1, s.y}, 1)
	out.Emit(cell{s.x, s.y + 1}, 1)
}

func TestCancelClosedDoneAborts(t *testing.T) {
	for _, strat := range []Strategy{AStar, BestFirst, BreadthFirst} {
		res, err := Find[cell](latticeProblem{}, Options{
			Strategy: strat,
			Done:     closedDone(),
			// A budget backstop so a regression cannot hang the test.
			MaxExpansions: 100000,
		})
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("%v: err = %v, want ErrCancelled", strat, err)
		}
		if res.Found {
			t.Fatalf("%v: cancelled search reported Found", strat)
		}
		// The poll runs every cancelPollMask+1 expansions, so an
		// already-closed channel must stop the search within one window.
		if res.Stats.Expanded > cancelPollMask+1 {
			t.Fatalf("%v: %d expansions after pre-cancelled start", strat, res.Stats.Expanded)
		}
	}
}

func TestCancelMidSearch(t *testing.T) {
	// Close the channel from inside the search by hooking the successor
	// generator through a wrapper problem.
	ch := make(chan struct{})
	p := &hookedGrid{cancelAt: 500, ch: ch}
	res, err := Find[cell](p, Options{Strategy: AStar, Done: ch, MaxExpansions: 100000})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if res.Stats.Expanded < 500 {
		t.Fatalf("cancelled too early: %d expansions", res.Stats.Expanded)
	}
	if res.Stats.Expanded > 500+cancelPollMask+1 {
		t.Fatalf("cancellation latency too high: %d expansions past the close",
			res.Stats.Expanded-500)
	}
}

func TestNilDoneDoesNotCancel(t *testing.T) {
	res, err := Find[cell](latticeProblem{}, Options{Strategy: AStar, MaxExpansions: 200})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res.Stats.Expanded == 0 {
		t.Fatal("no work performed")
	}
}

// hookedGrid closes ch once cancelAt expansions have emitted successors.
type hookedGrid struct {
	latticeProblem
	n        int
	cancelAt int
	ch       chan struct{}
	closed   bool
}

func (h *hookedGrid) Successors(s cell, out *Offers[cell]) {
	h.n++
	if h.n == h.cancelAt && !h.closed {
		h.closed = true
		close(h.ch)
	}
	h.latticeProblem.Successors(s, out)
}
