// Package seq implements the classical sequential routing regime the paper
// argues against:
//
//	"Classically, nets have been ordered and routed one after another. With
//	this approach nets must avoid other nets as well as cells, greatly
//	increasing the search time. Independent net routing also eliminates the
//	problem of net ordering…"
//
// Nets are routed one at a time in a chosen order; after each net routes,
// its wires become obstacles (inflated by a halo to wire width) for every
// later net. The result exhibits exactly the pathologies the paper lists:
// larger searches, order-dependent quality, and hard failures when an
// earlier wire strands a later pin. Experiment C4 compares this regime
// against the paper's independent routing.
package seq

import (
	"errors"
	"time"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
	"repro/internal/search"
)

// Ordering selects the net routing order.
type Ordering uint8

const (
	// LayoutOrder routes nets as listed.
	LayoutOrder Ordering = iota
	// LongestFirst routes by descending pin-bounding-box half-perimeter,
	// the classical "long nets first" heuristic.
	LongestFirst
	// ShortestFirst routes by ascending half-perimeter.
	ShortestFirst
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case LayoutOrder:
		return "layout-order"
	case LongestFirst:
		return "longest-first"
	case ShortestFirst:
		return "shortest-first"
	}
	return "unknown"
}

// Options tunes the sequential router.
type Options struct {
	// Ordering is the net order; the zero value is LayoutOrder.
	Ordering Ordering
	// WireHalo is the half-width by which routed wires are inflated into
	// obstacles; zero means 1.
	WireHalo geom.Coord
	// Router passes through to the underlying gridless router.
	Router router.Options
}

// Result reports a sequential routing run.
type Result struct {
	// Nets holds routes in layout net order (not routing order).
	Nets []router.NetRoute
	// Order lists net indices in the order they were routed.
	Order []int
	// TotalLength sums routed wire length.
	TotalLength geom.Coord
	// Failed lists nets that could not be routed (including nets whose
	// pins were stranded by earlier wires).
	Failed []string
	// Stats accumulates search effort.
	Stats search.Stats
	// Elapsed is the wall-clock time, including obstacle rebuilds.
	Elapsed time.Duration
}

// Route routes the layout sequentially. Unlike the independent regime this
// can never run concurrently: each net's obstacle set depends on all
// earlier nets.
func Route(l *layout.Layout, opts Options) (*Result, error) {
	start := time.Now()
	halo := opts.WireHalo
	if halo <= 0 {
		halo = 1
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		return nil, err
	}
	res := &Result{Nets: make([]router.NetRoute, len(l.Nets)), Order: order(l, opts.Ordering)}

	for _, ni := range res.Order {
		r := router.New(ix, opts.Router)
		nr, err := r.RouteNet(&l.Nets[ni])
		if err != nil {
			if errors.Is(err, router.ErrBlockedEndpoint) {
				// A previous net's wire strands this pin — the sequential
				// regime's characteristic failure.
				res.Nets[ni] = router.NetRoute{Net: l.Nets[ni].Name, FailedTerminal: "(stranded pin)"}
				res.Failed = append(res.Failed, l.Nets[ni].Name)
				continue
			}
			return nil, err
		}
		res.Nets[ni] = nr
		res.Stats.Expanded += nr.Stats.Expanded
		res.Stats.Generated += nr.Stats.Generated
		res.Stats.Reopened += nr.Stats.Reopened
		if nr.Stats.MaxOpen > res.Stats.MaxOpen {
			res.Stats.MaxOpen = nr.Stats.MaxOpen
		}
		if !nr.Found {
			res.Failed = append(res.Failed, nr.Net)
			continue
		}
		res.TotalLength += nr.Length
		// The routed wires become obstacles for all later nets.
		blocks := make([]geom.Rect, 0, len(nr.Segments))
		for _, s := range nr.Segments {
			blocks = append(blocks, s.Bounds().Inflate(halo))
		}
		if len(blocks) > 0 {
			ix, _, err = ix.Edit(nil, blocks)
			if err != nil {
				return nil, err
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// order computes the routing order for the chosen strategy.
func order(l *layout.Layout, o Ordering) []int {
	idx := make([]int, len(l.Nets))
	for i := range idx {
		idx[i] = i
	}
	if o == LayoutOrder {
		return idx
	}
	hpwl := make([]geom.Coord, len(l.Nets))
	for i := range l.Nets {
		var pts []geom.Point
		for _, p := range l.Nets[i].AllPins() {
			pts = append(pts, p.Pos)
		}
		hpwl[i] = bboxHalfPerim(pts)
	}
	// Insertion sort keeps this dependency-free and stable.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j-1], idx[j]
			swap := false
			if o == LongestFirst {
				swap = hpwl[b] > hpwl[a]
			} else {
				swap = hpwl[b] < hpwl[a]
			}
			if !swap {
				break
			}
			idx[j-1], idx[j] = b, a
		}
	}
	return idx
}

// bboxHalfPerim returns the half-perimeter of the points' bounding box.
func bboxHalfPerim(pts []geom.Point) geom.Coord {
	if len(pts) == 0 {
		return 0
	}
	bb := geom.R(pts[0].X, pts[0].Y, pts[0].X, pts[0].Y)
	for _, p := range pts[1:] {
		bb = bb.Union(geom.R(p.X, p.Y, p.X, p.Y))
	}
	return bb.HalfPerimeter()
}
