// Package layout models a general-cell (building-block) layout: rectangular
// macro cells placed on a routing plane, pins on cell boundaries, multi-pin
// terminals and multi-terminal nets.
//
// The paper places three restrictions on block placement, which Validate
// enforces:
//
//  1. blocks must be rectangular,
//  2. oriented orthogonally (both are guaranteed by construction — a Cell is
//     an axis-aligned geom.Rect),
//  3. placed a finite and non-zero distance apart (cells must not touch or
//     overlap).
//
// During global routing an unlimited number of wires may pass between any
// two cells; congestion is handled afterwards (package congest).
package layout

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/boxtree"
	"repro/internal/geom"
	"repro/internal/polygon"
)

// CellID indexes a cell within a Layout. NoCell marks pins that belong to
// the chip boundary (pads) rather than to a placed cell.
type CellID int

// NoCell marks a pad pin with no owning cell.
const NoCell CellID = -1

// Cell is a placed block (macro). The common case is rectangular (Box);
// the paper's orthogonal-polygon extension is supported by setting Poly to
// the outline's vertex ring, in which case Box must be the polygon's
// bounding box (Validate fills it in when left zero).
type Cell struct {
	// Name identifies the cell for reports; it must be unique in a layout.
	Name string `json:"name"`
	// Box is the cell's outline (bounding box when Poly is set). Routes
	// may touch the boundary but never cross the interior.
	Box geom.Rect `json:"box"`
	// Poly, when non-empty, is the orthogonal-polygon outline vertex ring.
	Poly []geom.Point `json:"poly,omitempty"`
}

// Polygon returns the cell outline as a polygon (rectangular cells yield
// their 4-corner ring).
func (c *Cell) Polygon() polygon.Poly {
	if len(c.Poly) > 0 {
		return polygon.Poly{Vertices: c.Poly}
	}
	return polygon.FromRect(c.Box)
}

// ObstacleRects returns the rectangles to index for routing: the box for a
// rectangular cell, the double decomposition for a polygon cell.
func (c *Cell) ObstacleRects() []geom.Rect {
	if len(c.Poly) == 0 {
		return []geom.Rect{c.Box}
	}
	return c.Polygon().ObstacleRects()
}

// Area returns the outline area.
func (c *Cell) Area() geom.Coord {
	if len(c.Poly) == 0 {
		return c.Box.Area()
	}
	return c.Polygon().Area()
}

// Pin is a connection point. Pins sit on the boundary of their owning cell
// (or anywhere outside all cell interiors for pad pins).
type Pin struct {
	// Name identifies the pin within its terminal.
	Name string `json:"name"`
	// Pos is the pin location.
	Pos geom.Point `json:"pos"`
	// Cell is the owning cell, or NoCell for a pad.
	Cell CellID `json:"cell"`
}

// Terminal is a logical connection target. The paper's multi-pin terminals
// group several electrically equivalent pins: connecting any one pin
// connects the terminal, and all of its pins join the connected set as
// future attachment points.
type Terminal struct {
	// Name identifies the terminal within its net.
	Name string `json:"name"`
	// Pins lists the electrically equivalent pins (at least one).
	Pins []Pin `json:"pins"`
}

// Net is a set of terminals that must be electrically connected. Nets with
// more than two terminals are routed as approximate Steiner trees.
type Net struct {
	// Name identifies the net; it must be unique in a layout.
	Name string `json:"name"`
	// Terminals lists the connection targets (at least two for a routable
	// net).
	Terminals []Terminal `json:"terminals"`
}

// PinCount returns the total number of pins across all terminals.
func (n *Net) PinCount() int {
	total := 0
	for _, t := range n.Terminals {
		total += len(t.Pins)
	}
	return total
}

// AllPins returns every pin of the net in terminal order.
func (n *Net) AllPins() []Pin {
	pins := make([]Pin, 0, n.PinCount())
	for _, t := range n.Terminals {
		pins = append(pins, t.Pins...)
	}
	return pins
}

// Layout is a complete general-cell routing problem: the routing area, the
// placed cells and the nets to connect.
type Layout struct {
	// Name labels the layout in reports.
	Name string `json:"name"`
	// Bounds is the routing area. All cells and pins must lie within it.
	Bounds geom.Rect `json:"bounds"`
	// Cells are the placed blocks.
	Cells []Cell `json:"cells"`
	// Nets are the connection requirements.
	Nets []Net `json:"nets"`
}

// Cell returns the cell with the given id. It panics on NoCell or an
// out-of-range id, which always indicates a programming error.
func (l *Layout) Cell(id CellID) *Cell {
	return &l.Cells[id]
}

// cellGeom is the memoized per-cell geometry a Validate call shares across
// every check that touches the cell: the outline's vertical-slab
// decomposition (strict containment) and the obstacle rectangles
// (separation). Before this cache, every pin containment test re-decomposed
// the cell from scratch, making validation O(cells × nets) decompositions —
// the dominant setup cost on 64×64 macro grids. Rectangular cells bypass
// the polygon machinery entirely.
type cellGeom struct {
	cell   *Cell
	decomp []geom.Rect // lazily built vertical decomposition (polygon cells)
	obst   []geom.Rect // lazily built obstacle rectangles
}

// cellGeoms builds the per-cell cache for one validation pass.
func (l *Layout) cellGeoms() []cellGeom {
	geos := make([]cellGeom, len(l.Cells))
	for i := range l.Cells {
		geos[i].cell = &l.Cells[i]
	}
	return geos
}

// onBoundary reports whether p lies on the cell outline; identical to
// Cell.Polygon().OnBoundary without constructing a ring for rectangles.
func (g *cellGeom) onBoundary(p geom.Point) bool {
	if len(g.cell.Poly) == 0 {
		b := g.cell.Box
		onV := (p.X == b.MinX || p.X == b.MaxX) && b.MinY <= p.Y && p.Y <= b.MaxY
		onH := (p.Y == b.MinY || p.Y == b.MaxY) && b.MinX <= p.X && p.X <= b.MaxX
		return onV || onH
	}
	return g.cell.Polygon().OnBoundary(p)
}

// containsStrict reports whether p lies strictly inside the cell; identical
// to Cell.Polygon().ContainsStrict with the decomposition memoized and a
// bounding-box prefilter. The prefilter is exact: a point not strictly
// inside the bounding box is either outside the outline or on it (the
// outline's extreme edges lie on the box), never strictly interior.
func (g *cellGeom) containsStrict(p geom.Point) bool {
	b := g.cell.Box
	if p.X <= b.MinX || p.X >= b.MaxX || p.Y <= b.MinY || p.Y >= b.MaxY {
		return false
	}
	if len(g.cell.Poly) == 0 {
		return true // strictly inside the box is strictly inside the cell
	}
	poly := g.cell.Polygon()
	if poly.OnBoundary(p) {
		return false
	}
	if g.decomp == nil {
		g.decomp = poly.DecomposeVertical()
	}
	for _, r := range g.decomp {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// geomOf returns cell i's geometry: its entry in geos, or, when geos is nil,
// a fresh one that serves a single check.
func (l *Layout) geomOf(geos []cellGeom, i int) *cellGeom {
	if geos == nil {
		return &cellGeom{cell: &l.Cells[i]}
	}
	return &geos[i]
}

// obstacles returns the memoized obstacle rectangles.
func (g *cellGeom) obstacles() []geom.Rect {
	if g.obst == nil {
		g.obst = g.cell.ObstacleRects()
	}
	return g.obst
}

// NormalizeBoxes fills in the bounding box of bare-polygon cells, exactly
// as Validate does, without running the placement checks. Snapshot loading
// uses it so a layout hash taken over an unvalidated layout is comparable
// to one taken over its validated twin.
func (l *Layout) NormalizeBoxes() {
	for i := range l.Cells {
		c := &l.Cells[i]
		if len(c.Poly) > 0 && c.Box == (geom.Rect{}) {
			c.Box = c.Polygon().Bounds()
		}
	}
}

// Validate checks the paper's placement restrictions and basic
// well-formedness. It returns the first violation found, or nil: exactly
// what validateNaive, the all-pairs reference, returns for every input.
//
// After the cell loop it files the cell boxes in a boxtree.Tree, which
// hands the separation check, for each cell i, the cells j > i whose boxes
// meet cell i's, and the pin check, for each pin, the cells whose boxes
// strictly contain it, each in ascending order. Those are the only pairs
// and cells the reference's loops can fail on, and they arrive in the
// reference's order, so the first failing check is the same. On layouts
// whose boxes rarely meet, which includes every gen layout, this costs
// about O((cells + pins) log cells) instead of O(cells² + pins·cells), in
// O(cells) extra memory; on any input it costs at most a constant times the
// reference.
func (l *Layout) Validate() error {
	if err := l.validateCells(); err != nil {
		return err
	}
	// The cache and the tree must be built after the cell loop so
	// bare-polygon cells have their bounding boxes filled in.
	geos := l.cellGeoms()
	var ix boxtree.Tree
	ix.Build(len(l.Cells), func(i int) geom.Rect { return l.Cells[i].Box })
	// Restriction 3: finite, non-zero inter-cell distance. Disjoint
	// bounding boxes cannot intersect, so separated consults the
	// decompositions only when the boxes actually touch.
	meets := make([]bool, len(l.Cells)) // the cells whose box meets another's
	for i := range l.Cells {
		for _, j := range ix.Meeting(l.Cells[i].Box, false, int32(i)) {
			meets[i], meets[j] = true, true
			if err := l.separated(geos, i, int(j)); err != nil {
				return err
			}
		}
	}
	return l.validateNets(geos, func(p Pin) []int32 {
		// A pin that passed the boundary check lies in its cell's box, so
		// only a cell whose box meets that one can hold it strictly inside.
		if p.Cell != NoCell && !meets[p.Cell] {
			return nil
		}
		return ix.Meeting(geom.Rect{MinX: p.Pos.X, MinY: p.Pos.Y, MaxX: p.Pos.X, MaxY: p.Pos.Y}, true, -1)
	})
}

// validateNaive is Validate with the all-pairs loops it replaced: every
// cell pair's boxes are tested, and every pin against every cell. The tests
// hold Validate to its verdict and error text.
func (l *Layout) validateNaive() error {
	if err := l.validateCells(); err != nil {
		return err
	}
	geos := l.cellGeoms()
	for i := range l.Cells {
		for j := i + 1; j < len(l.Cells); j++ {
			if l.Cells[i].Box.Intersects(l.Cells[j].Box) {
				if err := l.separated(geos, i, j); err != nil {
					return err
				}
			}
		}
	}
	return l.validateNets(geos, l.everyCell())
}

// validateCells checks the bounds, then each cell in order: a name, unique
// among the cells, and its placement.
func (l *Layout) validateCells() error {
	if !l.Bounds.IsValid() || l.Bounds.Width() <= 0 || l.Bounds.Height() <= 0 {
		return fmt.Errorf("layout %q: bounds %v must have positive area", l.Name, l.Bounds)
	}
	names := make(map[string]bool, len(l.Cells))
	for i := range l.Cells {
		c := &l.Cells[i]
		if c.Name == "" {
			return fmt.Errorf("layout %q: cell %d has no name", l.Name, i)
		}
		if names[c.Name] {
			return fmt.Errorf("layout %q: duplicate cell name %q", l.Name, c.Name)
		}
		names[c.Name] = true
		if err := l.validateCellPlace(c); err != nil {
			return err
		}
	}
	return nil
}

// validateNets runs every net check in order, taking each pin's candidate
// cells from inside.
func (l *Layout) validateNets(geos []cellGeom, inside pinCells) error {
	netNames := make(map[string]bool, len(l.Nets))
	for i := range l.Nets {
		if err := l.validateNet(i, netNames, geos, inside); err != nil {
			return err
		}
	}
	return nil
}

// pinCells returns, ascending, the cells pin p is tested against for strict
// containment once it has passed the bounds and boundary checks: every
// cell whose interior holds p.Pos, and perhaps more.
type pinCells func(p Pin) []int32

// everyCell returns the pinCells that lists every cell: the pin check of
// validateNaive.
func (l *Layout) everyCell() pinCells {
	all := make([]int32, len(l.Cells))
	for i := range all {
		all[i] = int32(i)
	}
	return func(Pin) []int32 { return all }
}

// ValidateEdit returns exactly what Validate returns for l — nil, or an
// error with the same text — when l is an edit of a layout that passed
// Validate: the same name, bounds and cells, except that the cells listed
// in moved (ascending, each once) were translated together with every pin
// on them; the kept nets l.Nets[:firstAdded] in their old relative order,
// some perhaps removed; and added nets l.Nets[firstAdded:], about which
// nothing is assumed. Every layout an Engine installs passed Validate, so
// this is the check an ECO commit runs.
//
// Under that precondition only these checks can fail, and ValidateEdit runs
// just them, in Validate's order and with Validate's code:
//
//   - each moved cell's placement (bounds, outline), in ascending order;
//   - every cell pair with a moved member, in Validate's (i, j) order;
//   - for kept nets, the full pin check of pins on moved cells, and for
//     every other pin only the strictly-inside test against moved cells;
//   - for added nets, every net check: name, duplicate name, terminal and
//     pin counts, and the full pin check.
//
// The full pin check reads every cell's box and builds a cell's geometry
// only when the box strictly contains the pin. So an edit that moves no
// cell costs O(nets + added pins·cells) and allocates nothing that grows
// with the layout; a move adds O(cells·moved + pins·moved) and the per-cell
// geometry cache. No box tree is built.
func (l *Layout) ValidateEdit(moved []int, firstAdded int) error {
	var geos []cellGeom // nil: each check builds the geometry it needs
	inside := l.boxScan()
	if len(moved) > 0 {
		for _, ci := range moved {
			if err := l.validateCellPlace(&l.Cells[ci]); err != nil {
				return err
			}
		}
		geos = l.cellGeoms()
		if err := l.validateMoves(geos, moved, firstAdded, inside); err != nil {
			return err
		}
	}
	// Only an added name can repeat, so the names Validate would have seen
	// before the first added net matter only where an added net reuses them.
	seen := make(map[string]bool, len(l.Nets)-firstAdded)
	for i := firstAdded; i < len(l.Nets); i++ {
		seen[l.Nets[i].Name] = false
	}
	for i := range l.Nets[:firstAdded] {
		if _, reused := seen[l.Nets[i].Name]; reused {
			seen[l.Nets[i].Name] = true
		}
	}
	for i := firstAdded; i < len(l.Nets); i++ {
		if err := l.validateNet(i, seen, geos, inside); err != nil {
			return err
		}
	}
	return nil
}

// validateMoves runs ValidateEdit's checks of the moved cells, whose
// placements have passed: every cell pair with a moved member, and the
// kept nets' pins against the moved cells.
func (l *Layout) validateMoves(geos []cellGeom, moved []int, firstAdded int, inside pinCells) error {
	isMoved := make([]bool, len(l.Cells))
	for _, ci := range moved {
		isMoved[ci] = true
	}
	for i := range l.Cells {
		if isMoved[i] {
			for j := i + 1; j < len(l.Cells); j++ {
				if l.Cells[i].Box.Intersects(l.Cells[j].Box) {
					if err := l.separated(geos, i, j); err != nil {
						return err
					}
				}
			}
			continue
		}
		for _, j := range moved {
			if j > i && l.Cells[i].Box.Intersects(l.Cells[j].Box) {
				if err := l.separated(geos, i, j); err != nil {
					return err
				}
			}
		}
	}
	for i := range l.Nets[:firstAdded] {
		n := &l.Nets[i]
		for ti := range n.Terminals {
			t := &n.Terminals[ti]
			for _, p := range t.Pins {
				if p.Cell != NoCell && isMoved[p.Cell] {
					// The pair check already implies this one: a pin on a
					// cell's outline inside another cell means the two cells
					// overlap. The full check keeps every moved pin
					// independent of that argument.
					if err := l.validatePin(n, t, p, geos, inside); err != nil {
						return err
					}
					continue
				}
				for _, ci := range moved {
					if geos[ci].containsStrict(p.Pos) {
						return l.pinInsideError(n, t, p, ci)
					}
				}
			}
		}
	}
	return nil
}

// boxScan returns the pinCells that reads every cell's box and lists the
// cells whose box strictly contains the pin: containsStrict's exact
// prefilter, so no other cell can hold the pin strictly inside. The list is
// reused from pin to pin.
func (l *Layout) boxScan() pinCells {
	var hits []int32
	return func(p Pin) []int32 {
		hits = hits[:0]
		for i := range l.Cells {
			b := &l.Cells[i].Box
			if p.Pos.X > b.MinX && p.Pos.X < b.MaxX && p.Pos.Y > b.MinY && p.Pos.Y < b.MaxY {
				hits = append(hits, int32(i))
			}
		}
		return hits
	}
}

// validateCellPlace checks one cell's outline and placement: a valid
// orthogonal polygon whose bounding box is the cell's box (filled in for a
// bare polygon), a box of positive area, inside the bounds.
func (l *Layout) validateCellPlace(c *Cell) error {
	if len(c.Poly) > 0 {
		p := c.Polygon()
		if err := p.Validate(); err != nil {
			return fmt.Errorf("cell %q: %w", c.Name, err)
		}
		bb := p.Bounds()
		if c.Box == (geom.Rect{}) {
			c.Box = bb // fill in the bounding box for a bare polygon
		} else if c.Box != bb {
			return fmt.Errorf("cell %q: box %v does not match polygon bounds %v", c.Name, c.Box, bb)
		}
	}
	if !c.Box.IsValid() || c.Box.Width() <= 0 || c.Box.Height() <= 0 {
		return fmt.Errorf("cell %q: box %v must have positive area", c.Name, c.Box)
	}
	if !l.Bounds.ContainsRect(c.Box) {
		return fmt.Errorf("cell %q: box %v outside bounds %v", c.Name, c.Box, l.Bounds)
	}
	return nil
}

// separated checks restriction 3 for cells i and j, whose bounding boxes
// intersect: touching boundaries leave no room for wire and are rejected.
// The check is exact for polygon cells (their decomposed rectangles), so two
// interlocking L-shapes with a positive gap are legal even when their
// bounding boxes overlap.
func (l *Layout) separated(geos []cellGeom, i, j int) error {
	for _, a := range geos[i].obstacles() {
		for _, b := range geos[j].obstacles() {
			if a.Intersects(b) {
				return fmt.Errorf("cells %q and %q touch or overlap; the paper requires non-zero separation",
					l.Cells[i].Name, l.Cells[j].Name)
			}
		}
	}
	return nil
}

// validateNet checks net i: a unique name (seen holds the names of the nets
// before it and gains this one), at least two terminals, every terminal
// with pins, and every pin's placement.
func (l *Layout) validateNet(i int, seen map[string]bool, geos []cellGeom, inside pinCells) error {
	n := &l.Nets[i]
	if n.Name == "" {
		return fmt.Errorf("layout %q: net %d has no name", l.Name, i)
	}
	if seen[n.Name] {
		return fmt.Errorf("layout %q: duplicate net name %q", l.Name, n.Name)
	}
	seen[n.Name] = true
	if len(n.Terminals) < 2 {
		return fmt.Errorf("net %q: needs at least two terminals, has %d", n.Name, len(n.Terminals))
	}
	for ti := range n.Terminals {
		t := &n.Terminals[ti]
		if len(t.Pins) == 0 {
			return fmt.Errorf("net %q terminal %q: has no pins", n.Name, t.Name)
		}
		for _, p := range t.Pins {
			if err := l.validatePin(n, t, p, geos, inside); err != nil {
				return err
			}
		}
	}
	return nil
}

// validatePin checks a single pin's placement against the cell geometry in
// geos (built per check when geos is nil), testing strict containment in
// the cells inside lists.
func (l *Layout) validatePin(n *Net, t *Terminal, p Pin, geos []cellGeom, inside pinCells) error {
	if !l.Bounds.Contains(p.Pos) {
		return fmt.Errorf("net %q terminal %q pin %q: %v outside bounds %v",
			n.Name, t.Name, p.Name, p.Pos, l.Bounds)
	}
	if p.Cell != NoCell {
		if int(p.Cell) < 0 || int(p.Cell) >= len(l.Cells) {
			return fmt.Errorf("net %q terminal %q pin %q: cell id %d out of range",
				n.Name, t.Name, p.Name, p.Cell)
		}
		if !l.geomOf(geos, int(p.Cell)).onBoundary(p.Pos) {
			return fmt.Errorf("net %q terminal %q pin %q: %v must lie on the boundary of cell %q",
				n.Name, t.Name, p.Name, p.Pos, l.Cells[p.Cell].Name)
		}
	}
	// No pin may sit strictly inside any cell: the router could never
	// reach it.
	for _, i := range inside(p) {
		if CellID(i) != p.Cell && l.geomOf(geos, int(i)).containsStrict(p.Pos) {
			return l.pinInsideError(n, t, p, int(i))
		}
	}
	return nil
}

// pinInsideError reports pin p strictly inside cell ci.
func (l *Layout) pinInsideError(n *Net, t *Terminal, p Pin, ci int) error {
	return fmt.Errorf("net %q terminal %q pin %q: %v strictly inside cell %q",
		n.Name, t.Name, p.Name, p.Pos, l.Cells[ci].Name)
}

// MinSeparation returns the smallest Manhattan gap between any two cells,
// or -1 when the layout has fewer than two cells. It is the "finite and
// non-zero distance" of the paper's third restriction, and the congestion
// model's capacity scale.
func (l *Layout) MinSeparation() geom.Coord {
	if len(l.Cells) < 2 {
		return -1
	}
	geos := l.cellGeoms()
	min := geom.Coord(-1)
	for i := range l.Cells {
		ri := geos[i].obstacles()
		for j := i + 1; j < len(l.Cells); j++ {
			for _, a := range ri {
				for _, b := range geos[j].obstacles() {
					d := rectGap(a, b)
					if min < 0 || d < min {
						min = d
					}
				}
			}
		}
	}
	return min
}

// rectGap returns the Manhattan gap between two disjoint rectangles (zero if
// they touch).
func rectGap(a, b geom.Rect) geom.Coord {
	dx := geom.Coord(0)
	if a.MaxX < b.MinX {
		dx = b.MinX - a.MaxX
	} else if b.MaxX < a.MinX {
		dx = a.MinX - b.MaxX
	}
	dy := geom.Coord(0)
	if a.MaxY < b.MinY {
		dy = b.MinY - a.MaxY
	} else if b.MaxY < a.MinY {
		dy = a.MinY - b.MaxY
	}
	return dx + dy
}

// Stats summarizes a layout for reports.
type Stats struct {
	Cells, Nets, Terminals, Pins int
	// CellArea is the total cell area; Utilization is CellArea over the
	// bounds area in percent.
	CellArea    geom.Coord
	Utilization float64
}

// Summary computes layout statistics.
func (l *Layout) Summary() Stats {
	var s Stats
	s.Cells = len(l.Cells)
	s.Nets = len(l.Nets)
	for i := range l.Nets {
		s.Terminals += len(l.Nets[i].Terminals)
		s.Pins += l.Nets[i].PinCount()
	}
	for i := range l.Cells {
		s.CellArea += l.Cells[i].Area()
	}
	if a := l.Bounds.Area(); a > 0 {
		s.Utilization = 100 * float64(s.CellArea) / float64(a)
	}
	return s
}

// Clone returns a deep copy of the layout.
func (l *Layout) Clone() *Layout {
	out := &Layout{Name: l.Name, Bounds: l.Bounds}
	out.Cells = make([]Cell, len(l.Cells))
	for i, c := range l.Cells {
		out.Cells[i] = Cell{Name: c.Name, Box: c.Box, Poly: append([]geom.Point(nil), c.Poly...)}
	}
	out.Nets = make([]Net, len(l.Nets))
	for i := range l.Nets {
		n := l.Nets[i]
		cp := Net{Name: n.Name, Terminals: make([]Terminal, len(n.Terminals))}
		for j := range n.Terminals {
			t := n.Terminals[j]
			cp.Terminals[j] = Terminal{Name: t.Name, Pins: append([]Pin(nil), t.Pins...)}
		}
		out.Nets[i] = cp
	}
	return out
}

// WriteJSON encodes the layout as indented JSON.
func (l *Layout) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

// ReadJSON reads r to its end, decodes a layout from the bytes with
// DecodeJSON and validates it.
func ReadJSON(r io.Reader) (*Layout, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("layout: decode: %w", err)
	}
	l, err := DecodeJSON(b)
	if err != nil {
		return nil, err
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}
