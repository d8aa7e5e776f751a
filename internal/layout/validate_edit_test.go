package layout_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/polygon"
)

// The footprint check's contract: for any edit of a layout that passed
// Validate — cells translated with their pins, nets removed, nets added —
// ValidateEdit returns exactly what Validate of the whole edited layout
// returns. The tests below draw valid layouts from gen, plant faults into
// random edits, and compare the two verdicts case by case.

// editBases returns the valid layouts the edits start from: macro grids,
// a polygon chip, and random layouts with L-shaped cells. Each carries extra
// nets with pads in free space next to cells and in polygon notches, so
// that a move can swallow a pin that sits on no cell.
func editBases(t testing.TB) []*layout.Layout {
	t.Helper()
	var out []*layout.Layout
	keep := func(l *layout.Layout, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		addFreePads(t, l, rand.New(rand.NewSource(int64(len(out)))))
		out = append(out, l)
	}
	keep(gen.MacroGrid(6, 6, 40, 30, 12, 1))
	keep(gen.MacroGrid(4, 7, 40, 30, 9, 2))
	keep(gen.GridOfMacros(5, 5, 50, 40, 14, 3))
	keep(gen.PolyChip(4, 14, 30))
	keep(gen.PolyChip(5, 14, 30))
	for seed := int64(6); seed <= 8; seed++ {
		l, err := gen.RandomLayout(gen.Config{
			Seed: seed, Cells: 30, MinCell: 12, MaxCell: 150, Nets: 40,
			MaxTerminals: 4, MultiPinProb: 30, PadProb: 20,
		})
		if err == nil {
			withLCells(t, l)
		}
		keep(l, err)
	}
	return out
}

// withLCells turns every third cell of l into an L by cutting away the
// top-right quarter of its box, and moves pins left off the new outline to
// its bottom-left corner.
func withLCells(t testing.TB, l *layout.Layout) {
	t.Helper()
	for ci := 0; ci < len(l.Cells); ci += 3 {
		b := l.Cells[ci].Box
		p := polygon.L(b.MinX, b.MinY, b.MaxX, b.MaxY, b.MinX+b.Width()/2, b.MinY+b.Height()/2)
		l.Cells[ci].Poly = p.Vertices
		for ni := range l.Nets {
			for ti := range l.Nets[ni].Terminals {
				pins := l.Nets[ni].Terminals[ti].Pins
				for pi := range pins {
					if int(pins[pi].Cell) == ci && !p.OnBoundary(pins[pi].Pos) {
						pins[pi].Pos = geom.Pt(b.MinX, b.MinY)
					}
				}
			}
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("L cells: %v", err)
	}
}

// addFreePads appends two-pad nets: pads just outside a cell's box, and pads
// in the notches of polygon cells. Nets Validate rejects are dropped.
func addFreePads(t testing.TB, l *layout.Layout, r *rand.Rand) {
	t.Helper()
	for k := 0; k < 8; k++ {
		a, okA := freePad(l, r)
		b, okB := notchPad(l, r)
		if !okB {
			b, okB = freePad(l, r)
		}
		if !okA || !okB {
			continue
		}
		l.Nets = append(l.Nets, layout.Net{Name: fmt.Sprintf("pad%d", k), Terminals: []layout.Terminal{
			{Name: "a", Pins: []layout.Pin{a}}, {Name: "b", Pins: []layout.Pin{b}},
		}})
		if l.Validate() != nil {
			l.Nets = l.Nets[:len(l.Nets)-1]
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("free pads: %v", err)
	}
}

// nearPoint returns a point 1–3 units outside one side of box, strictly
// within that side's span, and the translation of box by which it ends up
// strictly inside the box.
func nearPoint(r *rand.Rand, box geom.Rect) (geom.Point, geom.Point) {
	d := geom.Coord(1 + r.Intn(3))
	push := d + 1 + geom.Coord(r.Intn(2))
	along := func(lo, hi geom.Coord) geom.Coord { return lo + 1 + geom.Coord(r.Int63n(int64(hi-lo-1))) }
	switch r.Intn(4) {
	case 0:
		return geom.Pt(box.MaxX+d, along(box.MinY, box.MaxY)), geom.Pt(push, 0)
	case 1:
		return geom.Pt(box.MinX-d, along(box.MinY, box.MaxY)), geom.Pt(-push, 0)
	case 2:
		return geom.Pt(along(box.MinX, box.MaxX), box.MaxY+d), geom.Pt(0, push)
	default:
		return geom.Pt(along(box.MinX, box.MaxX), box.MinY-d), geom.Pt(0, -push)
	}
}

// freePad returns a pad next to a random cell, if that spot is free.
func freePad(l *layout.Layout, r *rand.Rand) (layout.Pin, bool) {
	p, _ := nearPoint(r, l.Cells[r.Intn(len(l.Cells))].Box)
	pin := layout.Pin{Name: "p", Pos: p, Cell: layout.NoCell}
	return pin, l.Bounds.Contains(p) && !insideAny(l, p)
}

// notchPad returns a pad inside a polygon cell's box but outside the
// polygon, when l has a polygon cell with a notch the sampling finds.
func notchPad(l *layout.Layout, r *rand.Rand) (layout.Pin, bool) {
	p, ok := notchPoint(l, r)
	return layout.Pin{Name: "p", Pos: p, Cell: layout.NoCell}, ok
}

func notchPoint(l *layout.Layout, r *rand.Rand) (geom.Point, bool) {
	var polys []int
	for ci := range l.Cells {
		if len(l.Cells[ci].Poly) > 0 {
			polys = append(polys, ci)
		}
	}
	if len(polys) == 0 {
		return geom.Point{}, false
	}
	c := &l.Cells[polys[r.Intn(len(polys))]]
	b, poly := c.Box, c.Polygon()
	for try := 0; try < 20; try++ {
		p := geom.Pt(b.MinX+1+geom.Coord(r.Int63n(int64(b.Width()-1))), b.MinY+1+geom.Coord(r.Int63n(int64(b.Height()-1))))
		if !poly.ContainsStrict(p) && !poly.OnBoundary(p) {
			return p, true
		}
	}
	return geom.Point{}, false
}

func insideAny(l *layout.Layout, p geom.Point) bool {
	for ci := range l.Cells {
		if l.Cells[ci].Polygon().Contains(p) {
			return true
		}
	}
	return false
}

// interiorPoint returns a point strictly inside cell c.
func interiorPoint(c *layout.Cell) geom.Point {
	s := c.Polygon().DecomposeVertical()[0]
	return geom.Pt((s.MinX+s.MaxX)/2, (s.MinY+s.MaxY)/2)
}

// boundaryPin returns a pin at a random point of cell ci's outline.
func boundaryPin(l *layout.Layout, r *rand.Rand, ci int) layout.Pin {
	vs := l.Cells[ci].Polygon().Vertices
	k := r.Intn(len(vs))
	a, b := vs[k], vs[(k+1)%len(vs)]
	p := a
	if a.X == b.X && a.Y != b.Y {
		p.Y = geom.Min(a.Y, b.Y) + geom.Coord(r.Int63n(int64(geom.Abs(b.Y-a.Y))+1))
	} else if a.X != b.X {
		p.X = geom.Min(a.X, b.X) + geom.Coord(r.Int63n(int64(geom.Abs(b.X-a.X))+1))
	}
	return layout.Pin{Name: fmt.Sprintf("p%d", r.Intn(2)), Pos: p, Cell: layout.CellID(ci)}
}

// edit is one generated ECO edit over a base layout: removed net indices,
// added nets (pins in pre-move coordinates, as staged), accumulated cell
// moves, and the fault kinds planted into it.
type edit struct {
	base    *layout.Layout
	r       *rand.Rand
	removed map[int]bool
	adds    []layout.Net
	moves   map[int]geom.Point
	planted []string
}

// apply builds the edited layout the way Edit.Commit does: the kept nets in
// order, then the added ones, with every moved cell translated together with
// every pin on it. It returns the ascending moved cells and the index of the
// first added net.
func (ed *edit) apply() (*layout.Layout, []int, int) {
	l := ed.base.Clone()
	kept := l.Nets[:0]
	for ni := range l.Nets {
		if !ed.removed[ni] {
			kept = append(kept, l.Nets[ni])
		}
	}
	firstAdded := len(kept)
	for _, n := range ed.adds {
		cp := layout.Net{Name: n.Name}
		for _, term := range n.Terminals {
			cp.Terminals = append(cp.Terminals, layout.Terminal{Name: term.Name, Pins: append([]layout.Pin(nil), term.Pins...)})
		}
		kept = append(kept, cp)
	}
	l.Nets = kept
	var moved []int
	for ci := range l.Cells {
		if d := ed.moves[ci]; d != (geom.Point{}) {
			moved = append(moved, ci)
		}
	}
	for _, ci := range moved {
		d := ed.moves[ci]
		c := &l.Cells[ci]
		c.Box = c.Box.Translate(d)
		for k := range c.Poly {
			c.Poly[k] = c.Poly[k].Add(d)
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
	return l, moved, firstAdded
}

// validNet returns a net Validate accepts on the unedited base: two or
// three terminals, each a pin on a random cell's outline (sometimes two) or
// a pad in free space.
func (ed *edit) validNet() layout.Net {
	l, r := ed.base, ed.r
	n := layout.Net{Name: fmt.Sprintf("add%d", len(ed.adds))}
	for ti := 0; ti < 2+r.Intn(2); ti++ {
		term := layout.Terminal{Name: fmt.Sprintf("t%d", ti)}
		if pad, ok := freePad(l, r); ok && r.Intn(4) == 0 {
			term.Pins = append(term.Pins, pad)
		} else {
			ci := r.Intn(len(l.Cells))
			term.Pins = append(term.Pins, boundaryPin(l, r, ci))
			if r.Intn(5) == 0 {
				term.Pins = append(term.Pins, boundaryPin(l, r, ci))
			}
		}
		n.Terminals = append(n.Terminals, term)
	}
	return n
}

// addNet appends a valid net after letting mutate change it.
func (ed *edit) addNet(mutate func(n *layout.Net)) bool {
	n := ed.validNet()
	mutate(&n)
	ed.adds = append(ed.adds, n)
	return true
}

// unmovedCell returns a random cell no earlier plant moved.
func (ed *edit) unmovedCell() (int, bool) {
	for try := 0; try < 8; try++ {
		if ci := ed.r.Intn(len(ed.base.Cells)); ed.moves[ci] == (geom.Point{}) {
			return ci, true
		}
	}
	return 0, false
}

// neighbourMove moves a random cell toward its nearest neighbour on a
// random side (boxes overlapping across that side) by the gap plus extra:
// extra 0 makes the boxes touch, extra > 0 overlap.
func (ed *edit) neighbourMove(extra geom.Coord) bool {
	ci, ok := ed.unmovedCell()
	if !ok {
		return false
	}
	l, c := ed.base, ed.base.Cells[ci].Box
	dir := ed.r.Intn(4)
	best, found := geom.Point{}, false
	for cj := range l.Cells {
		o := l.Cells[cj].Box
		var d geom.Point
		switch {
		case dir == 0 && o.MinX > c.MaxX && o.MinY < c.MaxY && o.MaxY > c.MinY:
			d = geom.Pt(o.MinX-c.MaxX+extra, 0)
		case dir == 1 && o.MaxX < c.MinX && o.MinY < c.MaxY && o.MaxY > c.MinY:
			d = geom.Pt(o.MaxX-c.MinX-extra, 0)
		case dir == 2 && o.MinY > c.MaxY && o.MinX < c.MaxX && o.MaxX > c.MinX:
			d = geom.Pt(0, o.MinY-c.MaxY+extra)
		case dir == 3 && o.MaxY < c.MinY && o.MinX < c.MaxX && o.MaxX > c.MinX:
			d = geom.Pt(0, o.MaxY-c.MinY-extra)
		default:
			continue
		}
		if !found || geom.Abs(d.X+d.Y) < geom.Abs(best.X+best.Y) {
			best, found = d, true
		}
	}
	if found {
		ed.moves[ci] = best
	}
	return found
}

// interlock moves a cell into a polygon cell's bounding box, clear of the
// polygon; with touch it then slides the cell left until the two touch.
func (ed *edit) interlock(touch bool) bool {
	l, r := ed.base, ed.r
	var hosts []int
	for ci := range l.Cells {
		if len(l.Cells[ci].Poly) > 0 {
			hosts = append(hosts, ci)
		}
	}
	if len(hosts) == 0 {
		return false
	}
	hi := hosts[r.Intn(len(hosts))]
	host := l.Cells[hi].Box
	hostObs := l.Cells[hi].ObstacleRects()
	fits := func(b geom.Rect) bool {
		for _, o := range hostObs {
			if o.Intersects(b) {
				return false
			}
		}
		return host.ContainsRect(b)
	}
	var small []int
	for qi := range l.Cells {
		q := l.Cells[qi].Box
		if qi != hi && ed.moves[qi] == (geom.Point{}) && 2*q.Width() < host.Width() && 2*q.Height() < host.Height() {
			small = append(small, qi)
		}
	}
	for try := 0; try < 3 && len(small) > 0; try++ {
		qi := small[r.Intn(len(small))]
		q := l.Cells[qi].Box
		var ds []geom.Point
		for x := host.MinX; x+q.Width() <= host.MaxX; x++ {
			for y := host.MinY; y+q.Height() <= host.MaxY; y++ {
				if d := geom.Pt(x-q.MinX, y-q.MinY); fits(q.Translate(d)) {
					ds = append(ds, d)
				}
			}
		}
		if len(ds) == 0 {
			continue
		}
		d := ds[r.Intn(len(ds))]
		if touch {
			for fits(q.Translate(d)) {
				d.X--
			}
			if !host.ContainsRect(q.Translate(d)) {
				continue
			}
		}
		ed.moves[qi] = d
		return true
	}
	return false
}

// plantKinds lists the faults the generator plants, each with the
// substring of the error Validate reports for it alone ("" for a valid
// edit).
var plantKinds = []struct {
	name, want string
	plant      func(ed *edit) bool
}{
	{"pin strictly inside a cell", "strictly inside", func(ed *edit) bool {
		c := &ed.base.Cells[ed.r.Intn(len(ed.base.Cells))]
		return ed.addNet(func(n *layout.Net) {
			n.Terminals[0].Pins[0] = layout.Pin{Name: "in", Pos: interiorPoint(c), Cell: layout.NoCell}
		})
	}},
	{"pin in a polygon's notch", "", func(ed *edit) bool {
		pad, ok := notchPad(ed.base, ed.r)
		return ok && ed.addNet(func(n *layout.Net) { n.Terminals[0].Pins = []layout.Pin{pad} })
	}},
	{"pin off its cell's boundary", "must lie on the boundary", func(ed *edit) bool {
		ci := ed.r.Intn(len(ed.base.Cells))
		pos := interiorPoint(&ed.base.Cells[ci])
		if ed.r.Intn(2) == 0 {
			pos, _ = nearPoint(ed.r, ed.base.Cells[ci].Box)
		}
		return ed.addNet(func(n *layout.Net) {
			n.Terminals[1].Pins[0] = layout.Pin{Name: "off", Pos: pos, Cell: layout.CellID(ci)}
		})
	}},
	{"pin out of bounds", "outside bounds", func(ed *edit) bool {
		b := ed.base.Bounds
		return ed.addNet(func(n *layout.Net) {
			n.Terminals[1].Pins[0] = layout.Pin{Name: "out", Pos: geom.Pt(b.MaxX+1, b.MinY), Cell: layout.NoCell}
		})
	}},
	{"bad cell id", "out of range", func(ed *edit) bool {
		id := layout.CellID(len(ed.base.Cells) + ed.r.Intn(3))
		if ed.r.Intn(3) == 0 {
			id = -2
		}
		return ed.addNet(func(n *layout.Net) { n.Terminals[0].Pins[0].Cell = id })
	}},
	{"terminal with no pins", "has no pins", func(ed *edit) bool {
		return ed.addNet(func(n *layout.Net) { n.Terminals[len(n.Terminals)-1].Pins = nil })
	}},
	{"net with one terminal", "needs at least two terminals", func(ed *edit) bool {
		return ed.addNet(func(n *layout.Net) { n.Terminals = n.Terminals[:1] })
	}},
	{"empty net name", "has no name", func(ed *edit) bool {
		return ed.addNet(func(n *layout.Net) { n.Name = "" })
	}},
	{"duplicate net name", "duplicate net name", func(ed *edit) bool {
		name := ed.base.Nets[ed.r.Intn(len(ed.base.Nets))].Name
		if len(ed.adds) > 0 && ed.r.Intn(2) == 0 {
			name = ed.adds[ed.r.Intn(len(ed.adds))].Name
		}
		return ed.addNet(func(n *layout.Net) { n.Name = name })
	}},
	{"move touching a neighbour", "touch or overlap", func(ed *edit) bool { return ed.neighbourMove(0) }},
	{"move overlapping a neighbour", "touch or overlap", func(ed *edit) bool {
		return ed.neighbourMove(1 + geom.Coord(ed.r.Intn(6)))
	}},
	{"move out of bounds", "outside bounds", func(ed *edit) bool {
		ci, ok := ed.unmovedCell()
		if !ok {
			return false
		}
		c, b, over := ed.base.Cells[ci].Box, ed.base.Bounds, geom.Coord(1+ed.r.Intn(3))
		ed.moves[ci] = [...]geom.Point{
			geom.Pt(b.MaxX-c.MaxX+over, 0), geom.Pt(b.MinX-c.MinX-over, 0),
			geom.Pt(0, b.MaxY-c.MaxY+over), geom.Pt(0, b.MinY-c.MinY-over),
		}[ed.r.Intn(4)]
		return true
	}},
	{"move swallowing a kept pad", "strictly inside", func(ed *edit) bool {
		type cand struct {
			ci int
			d  geom.Point
		}
		var cands []cand
		l := ed.base
		for ni := range l.Nets {
			for _, term := range l.Nets[ni].Terminals {
				for _, p := range term.Pins {
					for ci := range l.Cells {
						if d, ok := swallow(l.Cells[ci].Box, p); ok && !ed.removed[ni] && p.Cell == layout.NoCell &&
							ed.moves[ci] == (geom.Point{}) {
							cands = append(cands, cand{ci, d})
						}
					}
				}
			}
		}
		if len(cands) == 0 {
			return false
		}
		c := cands[ed.r.Intn(len(cands))]
		ed.moves[c.ci] = c.d
		return true
	}},
	{"move swallowing an added pin", "strictly inside", func(ed *edit) bool {
		ci, ok := ed.unmovedCell()
		if !ok {
			return false
		}
		p, d := nearPoint(ed.r, ed.base.Cells[ci].Box)
		if !ed.base.Bounds.Contains(p) || insideAny(ed.base, p) {
			return false
		}
		ed.moves[ci] = d
		return ed.addNet(func(n *layout.Net) {
			n.Terminals[0].Pins[0] = layout.Pin{Name: "free", Pos: p, Cell: layout.NoCell}
		})
	}},
	{"move interlocking polygon boxes", "", func(ed *edit) bool { return ed.interlock(false) }},
	{"move interlocking and touching", "touch or overlap", func(ed *edit) bool { return ed.interlock(true) }},
}

// swallow returns the translation of box along one axis that puts p
// strictly inside it, when p lies 1–4 units outside one side and strictly
// within that side's span.
func swallow(box geom.Rect, p layout.Pin) (geom.Point, bool) {
	inX := box.MinX < p.Pos.X && p.Pos.X < box.MaxX
	inY := box.MinY < p.Pos.Y && p.Pos.Y < box.MaxY
	near := func(gap geom.Coord) bool { return gap >= 1 && gap <= 4 }
	switch {
	case inY && near(p.Pos.X-box.MaxX):
		return geom.Pt(p.Pos.X-box.MaxX+1, 0), true
	case inY && near(box.MinX-p.Pos.X):
		return geom.Pt(p.Pos.X-box.MinX-1, 0), true
	case inX && near(p.Pos.Y-box.MaxY):
		return geom.Pt(0, p.Pos.Y-box.MaxY+1), true
	case inX && near(box.MinY-p.Pos.Y):
		return geom.Pt(0, p.Pos.Y-box.MinY-1), true
	}
	return geom.Point{}, false
}

// randomEdit draws an edit over base: a few removals, zero to three planted
// faults, then a few valid additions and small moves of other cells.
func randomEdit(base *layout.Layout, r *rand.Rand) *edit {
	ed := &edit{base: base, r: r, removed: map[int]bool{}, moves: map[int]geom.Point{}}
	for k := r.Intn(3); k > 0; k-- {
		ed.removed[r.Intn(len(base.Nets))] = true
	}
	for k := r.Intn(4); k > 0; k-- {
		for try := 0; try < 4; try++ {
			kind := plantKinds[r.Intn(len(plantKinds))]
			if kind.plant(ed) {
				ed.planted = append(ed.planted, kind.name)
				break
			}
		}
	}
	for k := r.Intn(3); k > 0; k-- {
		ed.addNet(func(*layout.Net) {})
	}
	if r.Intn(3) == 0 {
		if ci, ok := ed.unmovedCell(); ok {
			ed.moves[ci] = geom.Pt(geom.Coord(r.Intn(7)-3), geom.Coord(r.Intn(7)-3))
		}
	}
	return ed
}

// checkEdit applies ed and asserts that ValidateEdit's verdict is
// Validate's. It returns Validate's verdict.
func checkEdit(t testing.TB, ed *edit) error {
	t.Helper()
	l2, moved, firstAdded := ed.apply()
	want := l2.Clone().Validate()
	got := l2.Clone().ValidateEdit(moved, firstAdded)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("edit of %q (planted %v, moved %v, first added %d): ValidateEdit = %v, Validate = %v",
			ed.base.Name, ed.planted, moved, firstAdded, got, want)
	}
	return want
}

// TestValidateEditMatchesValidate draws thousands of edits over the bases
// and asserts ValidateEdit's verdict equals Validate's in every one. Each
// planted fault kind must occur, and must at least once draw the error it
// was planted for (or none, for the valid kinds), so no kind is vacuous.
func TestValidateEditMatchesValidate(t *testing.T) {
	perBase := 700
	if testing.Short() {
		perBase = 150
	}
	planted := make([]int, len(plantKinds))
	drew := make([]int, len(plantKinds))
	verdicts := map[bool]int{}
	for bi, base := range editBases(t) {
		r := rand.New(rand.NewSource(int64(100 + bi)))
		for k := 0; k < perBase; k++ {
			ed := randomEdit(base, r)
			want := checkEdit(t, ed)
			verdicts[want == nil]++
			for ki, kind := range plantKinds {
				for _, name := range ed.planted {
					if name != kind.name {
						continue
					}
					planted[ki]++
					if (kind.want == "" && want == nil) || (kind.want != "" && want != nil && strings.Contains(want.Error(), kind.want)) {
						drew[ki]++
					}
				}
			}
		}
	}
	for ki, kind := range plantKinds {
		t.Logf("%-32s planted %4d, drew its verdict %4d", kind.name, planted[ki], drew[ki])
		if planted[ki] == 0 || drew[ki] == 0 {
			t.Errorf("fault %q: planted %d times, drew its verdict %d times", kind.name, planted[ki], drew[ki])
		}
	}
	t.Logf("%d edits: %d valid, %d invalid", verdicts[true]+verdicts[false], verdicts[true], verdicts[false])
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts: %d valid, %d invalid; want both", verdicts[true], verdicts[false])
	}
}

// scriptSource is a rand.Source that replays fuzz bytes, one per draw, so
// the fuzzer steers every choice randomEdit makes; it draws zeros once the
// bytes run out.
type scriptSource struct{ b []byte }

func (s *scriptSource) Int63() int64 {
	var c byte
	if len(s.b) > 0 {
		c, s.b = s.b[0], s.b[1:]
	}
	return int64(uint64(c) * 0x0101010101010101 >> 1)
}

func (s *scriptSource) Seed(int64) {}

// FuzzValidateEdit runs the property test's check on edits the fuzzer
// scripts: any base, any sequence of generator choices.
func FuzzValidateEdit(f *testing.F) {
	bases := editBases(f)
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), []byte{3, 0, 14, 9, 9, 1, 200, 17, 3})
	f.Add(uint8(5), []byte{0, 2, 15, 1, 0, 14, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, base uint8, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		checkEdit(t, randomEdit(bases[int(base)%len(bases)], rand.New(&scriptSource{b: script})))
	})
}

// TestValidateEditNetOnlyAllocsFlat: an edit that moves no cell builds no
// per-cell state, so the bytes ValidateEdit allocates per call do not grow
// with the layout. The edit removes five bus nets and adds them back, as
// an ECO reroute of five nets does, on 16×16 and 64×64 macro grids.
func TestValidateEditNetOnlyAllocsFlat(t *testing.T) {
	perCall := func(n int) uint64 {
		l, err := gen.MacroGrid(n, n, 40, 30, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		var kept, added []layout.Net
		for _, net := range l.Nets {
			if strings.HasPrefix(net.Name, "hb") && len(added) < 5 {
				added = append(added, net)
			} else {
				kept = append(kept, net)
			}
		}
		ed := &layout.Layout{Name: l.Name, Bounds: l.Bounds, Cells: l.Cells, Nets: append(kept, added...)}
		if err := ed.ValidateEdit(nil, len(kept)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			ed.ValidateEdit(nil, len(kept))
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	small, large := perCall(16), perCall(64)
	t.Logf("bytes per net-only ValidateEdit: %d at 16×16, %d at 64×64", small, large)
	if large > small+small/4+256 { // slack for a stray runtime allocation
		t.Fatalf("a net-only ValidateEdit allocates %d B per call at 64×64 against %d B at 16×16: it grows with the layout", large, small)
	}
}
