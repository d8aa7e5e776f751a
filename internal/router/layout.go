package router

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/search"
)

// LayoutResult aggregates the routes for every net of a layout.
type LayoutResult struct {
	// Nets holds one NetRoute per layout net, in layout order.
	Nets []NetRoute
	// TotalLength sums wire length over all routed nets.
	TotalLength geom.Coord
	// Failed lists the names of nets that could not be fully connected.
	Failed []string
	// Stats accumulates search effort over all nets.
	Stats search.Stats
	// Elapsed is the wall-clock routing time.
	Elapsed time.Duration
	// Panics collects per-net panics recovered by the worker pool (sorted
	// by net name, so the report is worker-count independent). A panicked
	// net is listed in Failed with a well-formed not-Found route; the rest
	// of the run completes normally.
	Panics []*PanicError
}

// NetSegments flattens the result into one segment list per net, in layout
// order: the form congest.BuildMap counts. The lists are the routes' own.
func (res *LayoutResult) NetSegments() [][]geom.Seg {
	out := make([][]geom.Seg, len(res.Nets))
	for i := range res.Nets {
		out[i] = res.Nets[i].Segments
	}
	return out
}

// Finalize recomputes the aggregate fields (TotalLength, Failed, Stats)
// from Nets and stamps Elapsed relative to start. RouteLayout calls it after
// routing every net; congestion passes call it after splicing rerouted nets
// into a copy of the previous pass, so every pass reports comparable effort.
func (res *LayoutResult) Finalize(start time.Time) {
	res.TotalLength = 0
	res.Failed = nil
	res.Stats = search.Stats{}
	for i := range res.Nets {
		nr := &res.Nets[i]
		res.TotalLength += nr.Length
		res.Stats.Expanded += nr.Stats.Expanded
		res.Stats.Generated += nr.Stats.Generated
		res.Stats.Reopened += nr.Stats.Reopened
		if nr.Stats.MaxOpen > res.Stats.MaxOpen {
			res.Stats.MaxOpen = nr.Stats.MaxOpen
		}
		if !nr.Found {
			res.Failed = append(res.Failed, nr.Net)
		}
	}
	res.Elapsed = time.Since(start)
}

// RouteLayout routes every net of the layout. Because the paper routes each
// net independently — the only obstacles are the cells, so there is no net
// ordering and no interaction — the nets can be routed concurrently by
// workers goroutines; workers <= 0 uses GOMAXPROCS, and workers == 1 routes
// the nets one at a time in index order (used by benchmarks that time
// single-net work).
func (r *Router) RouteLayout(l *layout.Layout, workers int) (*LayoutResult, error) {
	return r.RouteLayoutCtx(context.Background(), l, workers)
}

// RouteLayoutCtx is RouteLayout with cooperative cancellation. When ctx is
// cancelled mid-run the partial result — every net either fully routed or
// still marked not-Found under its own name — is returned together with the
// context's error, so callers can report what completed. Any other routing
// error returns (nil, err) exactly as RouteLayout does.
func (r *Router) RouteLayoutCtx(ctx context.Context, l *layout.Layout, workers int) (*LayoutResult, error) {
	start := time.Now()
	res := &LayoutResult{Nets: make([]NetRoute, len(l.Nets))}
	panics, err := r.routeInto(ctx, l, workers, res.Nets)
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	res.Panics = panics
	res.Finalize(start)
	return res, err
}

// routeInto routes l.Nets[k] into out[k] for every k over a pool of
// workers that claim nets in index order; the calling goroutine is one of
// them, so a single worker routes the nets one after another with no
// handoff. Every slot is prefilled with its net's name so a cancelled run
// leaves well-formed not-Found entries rather than zero values. Per-net
// panics are recovered (routeNetGuarded) and collected rather than treated
// as errors: the poisoned net keeps its not-Found slot and the rest of the
// run completes, identically for any worker count. On any other error the
// pool stops promptly: no worker claims another net, so no route is
// silently left zero-valued behind a reported success.
func (r *Router) routeInto(ctx context.Context, l *layout.Layout, workers int, out []NetRoute) ([]*PanicError, error) {
	for k := range l.Nets {
		out[k] = NetRoute{Net: l.Nets[k].Name}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next     atomic.Int64 // index of the next unclaimed net
		mu       sync.Mutex   // guards panics and firstErr
		panics   []*PanicError
		firstErr error
		wg       sync.WaitGroup
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	work := func() {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(l.Nets) || failed() || ctx.Err() != nil {
				return
			}
			nr, err := r.routeNetGuarded(ctx, &l.Nets[k])
			var pe *PanicError
			if errors.As(err, &pe) {
				mu.Lock()
				panics = append(panics, pe)
				mu.Unlock()
				continue
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			out[k] = nr
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	sortPanics(panics)
	if firstErr != nil {
		return panics, firstErr
	}
	return panics, ctx.Err()
}

// sortPanics orders recovered panics by net name so reports are
// deterministic regardless of worker scheduling.
func sortPanics(panics []*PanicError) {
	sort.Slice(panics, func(i, j int) bool { return panics[i].Net < panics[j].Net })
}
