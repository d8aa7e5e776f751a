// Package gen generates synthetic general-cell layouts — the workload
// substitute for the author's in-house chips (`experiments -list` names
// the experiments that use them). All
// generators are seeded and deterministic, so every experiment is exactly
// reproducible.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/polygon"
)

// Config parameterizes RandomLayout.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Width/Height set the routing bounds; zero means 1000.
	Width, Height geom.Coord
	// Cells is the target cell count; zero means 20.
	Cells int
	// MinCell/MaxCell bound cell edge lengths; zero means 40/160.
	MinCell, MaxCell geom.Coord
	// Separation is the minimum inter-cell gap (the paper's non-zero
	// placement restriction); zero means 8.
	Separation geom.Coord
	// Nets is the number of nets; zero means 2 x Cells.
	Nets int
	// MaxTerminals bounds terminals per net (uniform in [2,MaxTerminals]);
	// zero means 2 (two-pin nets only).
	MaxTerminals int
	// MultiPinProb is the probability (percent, 0-100) that a terminal
	// gets a second equivalent pin on another edge of the same cell.
	MultiPinProb int
	// PadProb is the probability (percent) that a terminal is a boundary
	// pad instead of a cell pin.
	PadProb int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = 1000
	}
	if c.Height == 0 {
		c.Height = 1000
	}
	if c.Cells == 0 {
		c.Cells = 20
	}
	if c.MinCell == 0 {
		c.MinCell = 40
	}
	if c.MaxCell == 0 {
		c.MaxCell = 160
	}
	if c.Separation == 0 {
		c.Separation = 8
	}
	if c.Nets == 0 {
		c.Nets = 2 * c.Cells
	}
	if c.MaxTerminals < 2 {
		c.MaxTerminals = 2
	}
	return c
}

// RandomLayout places separated random cells and generates nets with pins
// on cell boundaries. Placement is by rejection sampling; the returned
// layout always validates. The cell count may fall short of the target
// when the area is too dense to place more.
func RandomLayout(cfg Config) (*layout.Layout, error) {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	l := &layout.Layout{
		Name:   fmt.Sprintf("random-%d", cfg.Seed),
		Bounds: geom.R(0, 0, cfg.Width, cfg.Height),
	}
	// Place cells with rejection sampling, keeping the mandatory gap.
	for try := 0; try < 200*cfg.Cells && len(l.Cells) < cfg.Cells; try++ {
		w := cfg.MinCell + geom.Coord(r.Int63n(int64(cfg.MaxCell-cfg.MinCell+1)))
		h := cfg.MinCell + geom.Coord(r.Int63n(int64(cfg.MaxCell-cfg.MinCell+1)))
		if w >= cfg.Width-2*cfg.Separation || h >= cfg.Height-2*cfg.Separation {
			continue
		}
		x := cfg.Separation + geom.Coord(r.Int63n(int64(cfg.Width-w-2*cfg.Separation+1)))
		y := cfg.Separation + geom.Coord(r.Int63n(int64(cfg.Height-h-2*cfg.Separation+1)))
		box := geom.R(x, y, x+w, y+h)
		ok := true
		for _, c := range l.Cells {
			if box.Inflate(cfg.Separation).Intersects(c.Box) {
				ok = false
				break
			}
		}
		if ok {
			l.Cells = append(l.Cells, layout.Cell{Name: fmt.Sprintf("c%d", len(l.Cells)), Box: box})
		}
	}
	if len(l.Cells) < 2 {
		return nil, fmt.Errorf("gen: placed only %d cells; loosen the configuration", len(l.Cells))
	}
	// Generate nets.
	for ni := 0; ni < cfg.Nets; ni++ {
		nTerms := 2
		if cfg.MaxTerminals > 2 {
			nTerms = 2 + r.Intn(cfg.MaxTerminals-1)
		}
		net := layout.Net{Name: fmt.Sprintf("n%d", ni)}
		for ti := 0; ti < nTerms; ti++ {
			term := layout.Terminal{Name: fmt.Sprintf("t%d", ti)}
			if r.Intn(100) < cfg.PadProb {
				term.Pins = append(term.Pins, layout.Pin{
					Name: "p0", Pos: boundaryPoint(r, l.Bounds), Cell: layout.NoCell,
				})
			} else {
				ci := r.Intn(len(l.Cells))
				term.Pins = append(term.Pins, layout.Pin{
					Name: "p0", Pos: edgePoint(r, l.Cells[ci].Box), Cell: layout.CellID(ci),
				})
				if r.Intn(100) < cfg.MultiPinProb {
					term.Pins = append(term.Pins, layout.Pin{
						Name: "p1", Pos: edgePoint(r, l.Cells[ci].Box), Cell: layout.CellID(ci),
					})
				}
			}
			net.Terminals = append(net.Terminals, term)
		}
		l.Nets = append(l.Nets, net)
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated layout invalid: %w", err)
	}
	return l, nil
}

// edgePoint picks a uniformly random point on the rectangle's boundary.
func edgePoint(r *rand.Rand, box geom.Rect) geom.Point {
	switch r.Intn(4) {
	case 0: // bottom
		return geom.Pt(box.MinX+geom.Coord(r.Int63n(int64(box.Width()+1))), box.MinY)
	case 1: // top
		return geom.Pt(box.MinX+geom.Coord(r.Int63n(int64(box.Width()+1))), box.MaxY)
	case 2: // left
		return geom.Pt(box.MinX, box.MinY+geom.Coord(r.Int63n(int64(box.Height()+1))))
	default: // right
		return geom.Pt(box.MaxX, box.MinY+geom.Coord(r.Int63n(int64(box.Height()+1))))
	}
}

// boundaryPoint picks a random point on the routing boundary (a pad site).
func boundaryPoint(r *rand.Rand, b geom.Rect) geom.Point {
	return edgePoint(r, b)
}

// GridOfMacros builds a rows x cols array of identical cells — the
// datapath-like workload — with bus nets between horizontal neighbors and a
// few column-spanning nets.
func GridOfMacros(rows, cols int, cellW, cellH, gap geom.Coord, seed int64) (*layout.Layout, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("gen: need at least a 1x1 grid")
	}
	r := rand.New(rand.NewSource(seed))
	l := &layout.Layout{
		Name: fmt.Sprintf("grid-%dx%d", rows, cols),
		Bounds: geom.R(0, 0,
			geom.Coord(cols)*(cellW+gap)+gap,
			geom.Coord(rows)*(cellH+gap)+gap),
	}
	at := func(rr, cc int) geom.Rect {
		x := gap + geom.Coord(cc)*(cellW+gap)
		y := gap + geom.Coord(rr)*(cellH+gap)
		return geom.R(x, y, x+cellW, y+cellH)
	}
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			l.Cells = append(l.Cells, layout.Cell{
				Name: fmt.Sprintf("m%d_%d", rr, cc), Box: at(rr, cc),
			})
		}
	}
	id := func(rr, cc int) layout.CellID { return layout.CellID(rr*cols + cc) }
	// Horizontal neighbor buses.
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc+1 < cols; cc++ {
			a, b := at(rr, cc), at(rr, cc+1)
			y := a.MinY + geom.Coord(r.Int63n(int64(cellH+1)))
			l.Nets = append(l.Nets, layout.Net{
				Name: fmt.Sprintf("bus%d_%d", rr, cc),
				Terminals: []layout.Terminal{
					{Name: "w", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(a.MaxX, y), Cell: id(rr, cc)}}},
					{Name: "e", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(b.MinX, y), Cell: id(rr, cc+1)}}},
				},
			})
		}
	}
	// Column-spanning control nets (multi-terminal).
	for cc := 0; cc < cols && rows > 1; cc++ {
		net := layout.Net{Name: fmt.Sprintf("ctl%d", cc)}
		for rr := 0; rr < rows; rr++ {
			box := at(rr, cc)
			x := box.MinX + geom.Coord(r.Int63n(int64(cellW+1)))
			net.Terminals = append(net.Terminals, layout.Terminal{
				Name: fmt.Sprintf("r%d", rr),
				Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(x, box.MaxY), Cell: id(rr, cc)}},
			})
		}
		l.Nets = append(l.Nets, net)
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("gen: grid layout invalid: %w", err)
	}
	return l, nil
}

// MacroGrid builds the macro-scale datapath workload: a rows x cols array
// of identical macro cells with bus nets between both horizontal and
// vertical neighbors, one control net spanning each column, and one
// cross-chip net per row connecting diagonally distant macros. A 32x32 grid
// yields 1024 obstacles and over 2000 nets — the scale where per-expansion
// cost dominates and the index-driven hot path pays off.
func MacroGrid(rows, cols int, cellW, cellH, gap geom.Coord, seed int64) (*layout.Layout, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("gen: macro grid needs at least 2x2")
	}
	r := rand.New(rand.NewSource(seed))
	l := &layout.Layout{
		Name: fmt.Sprintf("macro-%dx%d", rows, cols),
		Bounds: geom.R(0, 0,
			geom.Coord(cols)*(cellW+gap)+gap,
			geom.Coord(rows)*(cellH+gap)+gap),
	}
	at := func(rr, cc int) geom.Rect {
		x := gap + geom.Coord(cc)*(cellW+gap)
		y := gap + geom.Coord(rr)*(cellH+gap)
		return geom.R(x, y, x+cellW, y+cellH)
	}
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			l.Cells = append(l.Cells, layout.Cell{
				Name: fmt.Sprintf("m%d_%d", rr, cc), Box: at(rr, cc),
			})
		}
	}
	id := func(rr, cc int) layout.CellID { return layout.CellID(rr*cols + cc) }
	twoPin := func(name string, a, b layout.Pin) {
		l.Nets = append(l.Nets, layout.Net{
			Name: name,
			Terminals: []layout.Terminal{
				{Name: "a", Pins: []layout.Pin{a}},
				{Name: "b", Pins: []layout.Pin{b}},
			},
		})
	}
	// Horizontal neighbor buses.
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc+1 < cols; cc++ {
			a, b := at(rr, cc), at(rr, cc+1)
			y := a.MinY + geom.Coord(r.Int63n(int64(cellH+1)))
			twoPin(fmt.Sprintf("hb%d_%d", rr, cc),
				layout.Pin{Name: "p", Pos: geom.Pt(a.MaxX, y), Cell: id(rr, cc)},
				layout.Pin{Name: "p", Pos: geom.Pt(b.MinX, y), Cell: id(rr, cc+1)})
		}
	}
	// Vertical neighbor buses.
	for cc := 0; cc < cols; cc++ {
		for rr := 0; rr+1 < rows; rr++ {
			a, b := at(rr, cc), at(rr+1, cc)
			x := a.MinX + geom.Coord(r.Int63n(int64(cellW+1)))
			twoPin(fmt.Sprintf("vb%d_%d", rr, cc),
				layout.Pin{Name: "p", Pos: geom.Pt(x, a.MaxY), Cell: id(rr, cc)},
				layout.Pin{Name: "p", Pos: geom.Pt(x, b.MinY), Cell: id(rr+1, cc)})
		}
	}
	// Column-spanning control nets (multi-terminal).
	for cc := 0; cc < cols; cc++ {
		net := layout.Net{Name: fmt.Sprintf("ctl%d", cc)}
		for rr := 0; rr < rows; rr++ {
			box := at(rr, cc)
			x := box.MinX + geom.Coord(r.Int63n(int64(cellW+1)))
			net.Terminals = append(net.Terminals, layout.Terminal{
				Name: fmt.Sprintf("r%d", rr),
				Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(x, box.MaxY), Cell: id(rr, cc)}},
			})
		}
		l.Nets = append(l.Nets, net)
	}
	// Cross-chip nets: one per row, to a diagonally distant macro. These
	// long hauls share corridors and are what congests the grid.
	for rr := 0; rr < rows; rr++ {
		r2 := (rr + rows/2) % rows
		c2 := cols - 1 - (rr % cols)
		a, b := at(rr, 0), at(r2, c2)
		twoPin(fmt.Sprintf("x%d", rr),
			layout.Pin{Name: "p", Pos: geom.Pt(a.MinX, a.MinY+cellH/2), Cell: id(rr, 0)},
			layout.Pin{Name: "p", Pos: geom.Pt(b.MaxX, b.MinY+cellH/2), Cell: id(r2, c2)})
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("gen: macro grid invalid: %w", err)
	}
	return l, nil
}

// PadRing builds a core of random cells surrounded by boundary pads, each
// pad wired to a random core cell — the chip-assembly workload from the
// paper's introduction.
func PadRing(pads int, coreCells int, seed int64) (*layout.Layout, error) {
	// Generate the core placement (the single net it carries is discarded;
	// the pad nets below are the real netlist).
	core, err := RandomLayout(Config{
		Seed: seed, Cells: coreCells, Nets: 1,
		Width: 1000, Height: 1000,
	})
	if err != nil {
		return nil, err
	}
	l := &layout.Layout{Name: fmt.Sprintf("padring-%d", seed), Bounds: core.Bounds}
	l.Cells = core.Cells
	r := rand.New(rand.NewSource(seed + 1))
	per := (pads + 3) / 4
	for i := 0; i < pads; i++ {
		side := i / per
		frac := geom.Coord(int64(i%per+1) * 1000 / int64(per+1))
		var pos geom.Point
		switch side {
		case 0:
			pos = geom.Pt(frac, 0)
		case 1:
			pos = geom.Pt(frac, l.Bounds.MaxY)
		case 2:
			pos = geom.Pt(0, frac)
		default:
			pos = geom.Pt(l.Bounds.MaxX, frac)
		}
		ci := r.Intn(len(l.Cells))
		l.Nets = append(l.Nets, layout.Net{
			Name: fmt.Sprintf("pad%d", i),
			Terminals: []layout.Terminal{
				{Name: "pad", Pins: []layout.Pin{{Name: "p", Pos: pos, Cell: layout.NoCell}}},
				{Name: "core", Pins: []layout.Pin{{Name: "p", Pos: edgePoint(r, l.Cells[ci].Box), Cell: layout.CellID(ci)}}},
			},
		})
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("gen: pad ring invalid: %w", err)
	}
	return l, nil
}

// Funnel builds the congestion scene of the C5 experiment: a wall of two
// cells spans a 400×200 chip but for an 8-unit slit, and nNets two-pin
// nets, named n0, n1, …, join a west pin column to an east one, 8 units
// apart, so every route passes the slit.
func Funnel(nNets int) *layout.Layout {
	l := &layout.Layout{
		Name:   "funnel",
		Bounds: geom.R(0, 0, 400, 200),
		Cells: []layout.Cell{
			{Name: "lower", Box: geom.R(190, 0, 210, 96)},
			{Name: "upper", Box: geom.R(190, 104, 210, 200)},
		},
	}
	for i := 0; i < nNets; i++ {
		y := geom.Coord(60 + 8*i)
		l.Nets = append(l.Nets, layout.Net{
			Name: fmt.Sprintf("n%d", i),
			Terminals: []layout.Terminal{
				{Name: "w", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(10, y), Cell: layout.NoCell}}},
				{Name: "e", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(390, y), Cell: layout.NoCell}}},
			},
		})
	}
	return l
}

// Fig1Layout reconstructs the multi-cell example of the paper's Figure 1:
// a field of blocks between a start pin s (lower left) and a destination d
// (upper right). The figure is unlabeled, so coordinates are a faithful
// reconstruction of its topology: eight blocks of varying size with
// staggered passages, forcing the A* expansion to hug several cells.
func Fig1Layout() (*layout.Layout, geom.Point, geom.Point) {
	l := &layout.Layout{
		Name:   "figure1",
		Bounds: geom.R(0, 0, 220, 160),
		Cells: []layout.Cell{
			{Name: "b0", Box: geom.R(20, 20, 55, 60)},
			{Name: "b1", Box: geom.R(70, 10, 100, 45)},
			{Name: "b2", Box: geom.R(115, 25, 150, 70)},
			{Name: "b3", Box: geom.R(165, 15, 200, 55)},
			{Name: "b4", Box: geom.R(35, 80, 75, 120)},
			{Name: "b5", Box: geom.R(85, 60, 112, 100)},
			{Name: "b6", Box: geom.R(140, 85, 175, 125)},
			{Name: "b7", Box: geom.R(60, 130, 130, 150)},
		},
	}
	s := geom.Pt(5, 5)
	d := geom.Pt(210, 140)
	l.Nets = []layout.Net{{
		Name: "sd",
		Terminals: []layout.Terminal{
			{Name: "s", Pins: []layout.Pin{{Name: "p", Pos: s, Cell: layout.NoCell}}},
			{Name: "d", Pins: []layout.Pin{{Name: "p", Pos: d, Cell: layout.NoCell}}},
		},
	}}
	return l, s, d
}

// Fig2Layout reconstructs the inverted-corner scenario of Figure 2: a
// route that rounds a cell corner, where the preferred path hugs the cell
// and the non-preferred path of exactly equal length bends in free space.
// Returned are the layout and the two pins.
func Fig2Layout() (*layout.Layout, geom.Point, geom.Point) {
	l := &layout.Layout{
		Name:   "figure2",
		Bounds: geom.R(0, 0, 120, 120),
		Cells: []layout.Cell{
			{Name: "block", Box: geom.R(30, 30, 80, 80)},
		},
	}
	// From above the cell's NE corner to the right of it: every minimal
	// route turns once; the preferred turn is at the corner (80,80).
	a := geom.Pt(80, 100)
	b := geom.Pt(100, 80)
	l.Nets = []layout.Net{{
		Name: "corner",
		Terminals: []layout.Terminal{
			{Name: "a", Pins: []layout.Pin{{Name: "p", Pos: a, Cell: layout.NoCell}}},
			{Name: "b", Pins: []layout.Pin{{Name: "p", Pos: b, Cell: layout.NoCell}}},
		},
	}}
	return l, a, b
}

// BaffleMaze builds a serpentine wall layout with one two-pin net, returned
// with its two pin positions: n walls with alternating gaps force a zigzag
// detour.
func BaffleMaze(n int) (*layout.Layout, geom.Point, geom.Point) {
	width := geom.Coord(n+1)*40 + 40
	l := &layout.Layout{
		Name:   fmt.Sprintf("baffle-%d", n),
		Bounds: geom.R(0, 0, width, 200),
	}
	for i := 0; i < n; i++ {
		x := geom.Coord(40 + i*40)
		if i%2 == 0 {
			l.Cells = append(l.Cells, layout.Cell{
				Name: fmt.Sprintf("w%d", i), Box: geom.R(x, 10, x+8, 200),
			})
		} else {
			l.Cells = append(l.Cells, layout.Cell{
				Name: fmt.Sprintf("w%d", i), Box: geom.R(x, 0, x+8, 190),
			})
		}
	}
	s := geom.Pt(10, 100)
	d := geom.Pt(width-10, 100)
	l.Nets = []layout.Net{{
		Name: "thread",
		Terminals: []layout.Terminal{
			{Name: "s", Pins: []layout.Pin{{Name: "p", Pos: s, Cell: layout.NoCell}}},
			{Name: "d", Pins: []layout.Pin{{Name: "p", Pos: d, Cell: layout.NoCell}}},
		},
	}}
	return l, s, d
}

// PolyChip places a mix of rectangular, L-, U- and T-shaped cells and wires
// two-pin nets between cell outline vertices — the workload for the
// orthogonal-polygon extension (experiment E1).
func PolyChip(seed int64, cells, nets int) (*layout.Layout, error) {
	r := rand.New(rand.NewSource(seed))
	l := &layout.Layout{
		Name:   fmt.Sprintf("polychip-%d", seed),
		Bounds: geom.R(0, 0, 1000, 1000),
	}
	// Place bounding boxes with separation, then carve shapes inside them.
	for try := 0; try < 400*cells && len(l.Cells) < cells; try++ {
		w := 90 + geom.Coord(r.Int63n(120))
		h := 90 + geom.Coord(r.Int63n(120))
		x := 10 + geom.Coord(r.Int63n(int64(1000-w-20)))
		y := 10 + geom.Coord(r.Int63n(int64(1000-h-20)))
		box := geom.R(x, y, x+w, y+h)
		ok := true
		for _, c := range l.Cells {
			if box.Inflate(10).Intersects(c.Box) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cell := layout.Cell{Name: fmt.Sprintf("p%d", len(l.Cells)), Box: box}
		third := func(span geom.Coord) geom.Coord { return span / 3 }
		switch r.Intn(4) {
		case 0: // plain rectangle
		case 1: // L: notch the top-right quadrant
			cell.Poly = polygon.L(box.MinX, box.MinY, box.MaxX, box.MaxY,
				box.MinX+2*third(box.Width()), box.MinY+2*third(box.Height())).Vertices
		case 2: // U opening upward
			cell.Poly = polygon.U(box.MinX, box.MinY, box.MaxX, box.MaxY,
				box.MinX+third(box.Width()), box.MaxX-third(box.Width()),
				box.MinY+third(box.Height())).Vertices
		default: // T
			cell.Poly = polygon.T(box.MinX, box.MinY, box.MaxX, box.MaxY,
				box.MinX+third(box.Width()), box.MaxX-third(box.Width()),
				box.MinY+2*third(box.Height())).Vertices
		}
		l.Cells = append(l.Cells, cell)
	}
	if len(l.Cells) < 2 {
		return nil, fmt.Errorf("gen: placed only %d polygon cells", len(l.Cells))
	}
	vertexPin := func(ci int) layout.Pin {
		p := l.Cells[ci].Polygon()
		v := p.Vertices[r.Intn(len(p.Vertices))]
		return layout.Pin{Name: "p", Pos: v, Cell: layout.CellID(ci)}
	}
	for ni := 0; ni < nets; ni++ {
		a := r.Intn(len(l.Cells))
		b := r.Intn(len(l.Cells))
		for b == a {
			b = r.Intn(len(l.Cells))
		}
		l.Nets = append(l.Nets, layout.Net{
			Name: fmt.Sprintf("n%d", ni),
			Terminals: []layout.Terminal{
				{Name: "a", Pins: []layout.Pin{vertexPin(a)}},
				{Name: "b", Pins: []layout.Pin{vertexPin(b)}},
			},
		})
	}
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("gen: polygon chip invalid: %w", err)
	}
	return l, nil
}
