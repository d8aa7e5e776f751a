// Package adjust implements the placement-adjustment feedback loop the
// paper's introduction poses as open research:
//
//	"…or to require the routing system to provide feedback so that the
//	placement can be automatically adjusted. With the latter approach one
//	must be concerned about convergence. Placement adjustment can alter
//	the paths taken during global routing thereby creating inter-cell
//	spacing problems where they did not previously exist. … This is the
//	topic of further research by the author."
//
// Each iteration routes all nets, measures passage congestion, and widens
// every overflowed passage by cut-line expansion: all cells (and pins) on
// the far side of the passage shift outward by the missing capacity, and
// the die grows accordingly. Cut-line expansion never decreases any
// existing gap, so placement validity is preserved by construction; whether
// the loop *converges* (routes moving into newly tight passages, as the
// paper warns) is measured by experiment E2 rather than assumed.
package adjust

import (
	"context"
	"fmt"

	"repro/internal/congest"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
)

// Options tunes the feedback loop.
type Options struct {
	// Pitch is the wire pitch used for passage capacity; zero means 2.
	Pitch geom.Coord
	// MaxIters bounds the loop; zero means 10.
	MaxIters int
	// Workers as in Router.RouteLayout.
	Workers int
}

// Iteration records one pass of the loop.
type Iteration struct {
	// Overflow is the total passage overflow measured this pass.
	Overflow int
	// Widened counts the passages expanded after this pass.
	Widened int
	// TotalLength is the routed wirelength this pass.
	TotalLength geom.Coord
	// DieArea is the bounds area after any expansion.
	DieArea geom.Coord
}

// Result reports the loop outcome.
type Result struct {
	// Iterations lists each pass in order.
	Iterations []Iteration
	// Converged reports whether a pass finished with zero overflow within
	// the iteration budget.
	Converged bool
	// Layout is the adjusted placement (a clone; the input is unchanged).
	Layout *layout.Layout
	// Final is the last routing result on the adjusted placement.
	Final *router.LayoutResult
}

// Run executes the feedback loop on a clone of the layout.
func Run(l *layout.Layout, opts Options) (*Result, error) {
	return RunCtx(context.Background(), l, opts)
}

// RunCtx is Run with cooperative cancellation: the loop checks the context
// between iterations and threads it through each full-layout route, so a
// cancelled run returns the iterations completed so far (with the layout
// and routing state of the last finished iteration) together with the
// context's error.
func RunCtx(ctx context.Context, l *layout.Layout, opts Options) (*Result, error) {
	pitch := opts.Pitch
	if pitch <= 0 {
		pitch = 2
	}
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 10
	}
	cur := l.Clone()
	res := &Result{}
	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		ix, err := plane.FromLayout(cur)
		if err != nil {
			return nil, err
		}
		lr, err := router.New(ix, router.Options{}).RouteLayoutCtx(ctx, cur, opts.Workers)
		if err != nil {
			if ctx.Err() != nil {
				return res, err // partial: last finished iteration stands
			}
			return nil, err
		}
		passages, err := congest.Extract(ix, pitch)
		if err != nil {
			return nil, err
		}
		m := congest.BuildMap(passages, lr.NetSegments())
		it := Iteration{
			Overflow:    m.TotalOverflow(),
			TotalLength: lr.TotalLength,
			DieArea:     cur.Bounds.Area(),
		}
		res.Layout = cur
		res.Final = lr
		if it.Overflow == 0 {
			res.Iterations = append(res.Iterations, it)
			res.Converged = true
			return res, nil
		}
		// Widen every overflowed passage, outermost cuts first so earlier
		// cut coordinates stay valid as cells shift outward.
		cuts := collectCuts(m, pitch)
		for _, c := range cuts {
			applyCut(cur, c)
			it.Widened++
		}
		it.DieArea = cur.Bounds.Area()
		res.Iterations = append(res.Iterations, it)
		if err := cur.Validate(); err != nil {
			return nil, fmt.Errorf("adjust: expansion broke the layout: %w", err)
		}
	}
	return res, nil
}

// cut is one spacing expansion: everything at or beyond `at` along the axis
// shifts outward by `need`.
type cut struct {
	vertical bool // vertical passage: cut line is an x coordinate
	at       geom.Coord
	need     geom.Coord
}

// collectCuts derives the expansion set from the overflowed passages,
// sorted by descending cut coordinate per axis.
func collectCuts(m *congest.Map, pitch geom.Coord) []cut {
	var cuts []cut
	for _, pi := range m.Overflowed() {
		p := m.Passages[pi]
		over := m.Usage[pi] - p.Capacity
		need := geom.Coord(over) * pitch
		if p.Vertical {
			cuts = append(cuts, cut{vertical: true, at: p.Rect.MaxX, need: need})
		} else {
			cuts = append(cuts, cut{vertical: false, at: p.Rect.MaxY, need: need})
		}
	}
	// Outermost first within each axis (simple insertion sort; the list is
	// short).
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j].at > cuts[j-1].at; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// applyCut shifts all geometry at or beyond the cut outward and grows the
// die. Shifting only the far side means every existing gap either grows or
// is unchanged, so validity is preserved.
func applyCut(l *layout.Layout, c cut) {
	shiftX := func(x geom.Coord) geom.Coord {
		if c.vertical && x >= c.at {
			return x + c.need
		}
		return x
	}
	shiftY := func(y geom.Coord) geom.Coord {
		if !c.vertical && y >= c.at {
			return y + c.need
		}
		return y
	}
	for i := range l.Cells {
		cell := &l.Cells[i]
		moved := false
		if c.vertical {
			moved = cell.Box.MinX >= c.at
		} else {
			moved = cell.Box.MinY >= c.at
		}
		if !moved {
			continue
		}
		var d geom.Point
		if c.vertical {
			d = geom.Pt(c.need, 0)
		} else {
			d = geom.Pt(0, c.need)
		}
		cell.Box = cell.Box.Translate(d)
		for vi := range cell.Poly {
			cell.Poly[vi] = cell.Poly[vi].Add(d)
		}
		// Move the cell's pins with it.
		for ni := range l.Nets {
			for ti := range l.Nets[ni].Terminals {
				for pi := range l.Nets[ni].Terminals[ti].Pins {
					pin := &l.Nets[ni].Terminals[ti].Pins[pi]
					if pin.Cell == layout.CellID(i) {
						pin.Pos = pin.Pos.Add(d)
					}
				}
			}
		}
	}
	// Pad pins shift with the die side they sit beyond the cut on.
	for ni := range l.Nets {
		for ti := range l.Nets[ni].Terminals {
			for pi := range l.Nets[ni].Terminals[ti].Pins {
				pin := &l.Nets[ni].Terminals[ti].Pins[pi]
				if pin.Cell != layout.NoCell {
					continue
				}
				pin.Pos = geom.Pt(shiftX(pin.Pos.X), shiftY(pin.Pos.Y))
			}
		}
	}
	if c.vertical {
		l.Bounds.MaxX += c.need
	} else {
		l.Bounds.MaxY += c.need
	}
}
