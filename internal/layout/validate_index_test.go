package layout_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/polygon"
)

// The box index's contract: Validate returns exactly what validateNaive,
// the all-pairs loops it replaced, returns — nil, or an error with the same
// text — for every input. The cases below are edits of the ECO bases with
// planted faults, whole-layout faults no edit produces, and layouts built
// for the index's edge cases; each is checked against the reference.

// checkNaive asserts that Validate's verdict on l is validateNaive's and
// returns it. Both run on clones: Validate fills in bare polygon boxes.
func checkNaive(t testing.TB, l *layout.Layout, what string) error {
	t.Helper()
	want := l.Clone().ValidateNaive()
	got := l.Clone().Validate()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: Validate = %v, validateNaive = %v", what, got, want)
	}
	return want
}

// layoutFaults are whole-layout faults no ECO edit produces, each planted
// into one random cell. "bare polygon box" is legal: Validate fills the box
// in before it files the cell.
var layoutFaults = []struct {
	name  string
	plant func(l *layout.Layout, c *layout.Cell, r *rand.Rand)
}{
	{"unnamed cell", func(_ *layout.Layout, c *layout.Cell, _ *rand.Rand) { c.Name = "" }},
	{"duplicate cell name", func(l *layout.Layout, c *layout.Cell, r *rand.Rand) {
		c.Name = l.Cells[r.Intn(len(l.Cells))].Name
	}},
	{"bad outline", func(_ *layout.Layout, c *layout.Cell, _ *rand.Rand) {
		b := c.Box
		c.Poly = []geom.Point{geom.Pt(b.MinX, b.MinY), geom.Pt(b.MaxX, b.MinY), geom.Pt(b.MaxX, b.MaxY)}
	}},
	{"box not matching polygon", func(_ *layout.Layout, c *layout.Cell, _ *rand.Rand) {
		c.Poly = polygon.FromRect(c.Box).Vertices
		c.Box = c.Box.Translate(geom.Pt(1, 0))
	}},
	{"cell out of bounds", func(l *layout.Layout, c *layout.Cell, r *rand.Rand) {
		d := geom.Pt(l.Bounds.MaxX-c.Box.MaxX+1+geom.Coord(r.Intn(3)), 0)
		c.Box = c.Box.Translate(d)
		for k := range c.Poly {
			c.Poly[k] = c.Poly[k].Add(d)
		}
	}},
	{"bare polygon box", func(_ *layout.Layout, c *layout.Cell, _ *rand.Rand) {
		if len(c.Poly) == 0 {
			c.Poly = polygon.FromRect(c.Box).Vertices
		}
		c.Box = geom.Rect{}
	}},
}

// Where an index layout's bounds sit: at the origin, at a negative low
// corner, or against the upper or lower int64 limit.
const (
	originZero = iota
	originNegative
	originNearMax
	originNearMin
)

// indexLayout draws a layout aimed at the box index's edge cases, and names
// the edge cases it holds. Cells sit in a square of slots on a coarse
// lattice, so boxes, split midpoints, slot lines and pins coincide often; a
// slot's cell keeps a margin of 0–2 lattice steps on each side, so some
// neighbours touch. The slots may fill the bounds or cluster in one corner
// of much wider bounds; the origin may be zero, negative or at either int64
// limit. Extras: a chip-sized cell (an L whose notch holds the slots, or a
// rectangle over them), many copies of one cell, L-shaped slot cells. Pins sit on cell outlines
// and corners, on the bounds' max edges, on slot lines, at lattice points,
// and rarely outside the bounds or on a bad cell.
func indexLayout(r *rand.Rand) (*layout.Layout, []string) {
	var kinds []string
	side := r.Intn(6) // slots per side; 0 and 1 give zero cells and one cell
	step := geom.Coord(1 + r.Intn(3))
	slot := step * geom.Coord(4+r.Intn(4))
	extent := slot * geom.Coord(max(side, 1)+2)
	span := extent
	if r.Intn(4) == 0 {
		span = extent << (10 + r.Intn(30))
		kinds = append(kinds, "corner cluster")
	}
	var lo geom.Coord
	switch r.Intn(4) {
	case originZero:
	case originNegative:
		lo = -geom.Coord(1 + r.Intn(1000000))
		kinds = append(kinds, "negative origin")
	case originNearMax:
		lo = math.MaxInt64 - span - geom.Coord(r.Intn(2))
		kinds = append(kinds, "near MaxInt64")
	case originNearMin:
		lo = math.MinInt64 + geom.Coord(r.Intn(2))
		kinds = append(kinds, "near MinInt64")
	}
	l := &layout.Layout{Name: "index", Bounds: geom.Rect{MinX: lo, MinY: lo, MaxX: lo + span, MaxY: lo + span}}
	// The slot square sits at the low corner, or at the high one.
	sx := lo + slot
	if r.Intn(2) == 0 {
		sx = lo + span - slot*geom.Coord(side+1)
	}
	chip := side > 0 && r.Intn(5) == 0
	if chip {
		// An L whose notch holds the slots, half a slot in from its inner
		// edges, or a rectangle over all of them.
		b := l.Bounds
		c := layout.Cell{Name: "chip", Box: b}
		if nx := sx - slot/2; r.Intn(3) != 0 {
			c = layout.Cell{Name: "chip", Poly: polygon.L(b.MinX, b.MinY, b.MaxX, b.MaxY, nx, nx).Vertices}
		}
		l.Cells = append(l.Cells, c)
		kinds = append(kinds, "chip-sized cell")
	}
	margin := func() geom.Coord {
		if r.Intn(10) == 0 {
			return 0
		}
		return step * geom.Coord(1+r.Intn(2))
	}
	for row := 0; row < side; row++ {
		for col := 0; col < side; col++ {
			x0, y0 := sx+slot*geom.Coord(col), sx+slot*geom.Coord(row)
			box := geom.Rect{MinX: x0 + margin(), MinY: y0 + margin(), MaxX: x0 + slot - margin(), MaxY: y0 + slot - margin()}
			c := layout.Cell{Name: fmt.Sprintf("c%d_%d", row, col), Box: box}
			if r.Intn(4) == 0 {
				c.Poly = polygon.L(box.MinX, box.MinY, box.MaxX, box.MaxY, box.MinX+box.Width()/2, box.MinY+box.Height()/2).Vertices
			}
			l.Cells = append(l.Cells, c)
		}
	}
	if chip && len(l.Cells) > 1 {
		// File the chip cell at a random position in cell order.
		k := r.Intn(len(l.Cells))
		l.Cells[0], l.Cells[k] = l.Cells[k], l.Cells[0]
	}
	if side >= 2 && r.Intn(6) == 0 {
		// Up to 150 copies of one cell, so answers outgrow sortDirect.
		proto, copies := l.Cells[0], 2+r.Intn(149)
		l.Cells = l.Cells[:0]
		for k := 0; k < copies; k++ {
			l.Cells = append(l.Cells, layout.Cell{Name: fmt.Sprintf("copy%d", k), Box: proto.Box, Poly: proto.Poly})
		}
		kinds = append(kinds, "identical cells")
	}
	switch len(l.Cells) {
	case 0:
		kinds = append(kinds, "zero cells")
	case 1:
		kinds = append(kinds, "one cell")
	}
	for ni := 0; ni < 1+r.Intn(4); ni++ {
		n := layout.Net{Name: fmt.Sprintf("n%d", ni)}
		for ti := 0; ti < 2; ti++ {
			n.Terminals = append(n.Terminals, layout.Terminal{Name: fmt.Sprintf("t%d", ti),
				Pins: []layout.Pin{indexPin(l, r, sx, slot, step, &kinds)}})
		}
		l.Nets = append(l.Nets, n)
	}
	return l, kinds
}

// indexPin draws one pin of an index layout.
func indexPin(l *layout.Layout, r *rand.Rand, sx, slot, step geom.Coord, kinds *[]string) layout.Pin {
	b := l.Bounds
	lattice := func(lo, hi geom.Coord) geom.Coord { return lo + step*geom.Coord(r.Int63n(int64((hi-lo)/step)+1)) }
	pad := func(p geom.Point) layout.Pin { return layout.Pin{Name: "p", Pos: p, Cell: layout.NoCell} }
	k := r.Intn(20)
	switch {
	case k < 12 && len(l.Cells) > 0:
		ci := r.Intn(len(l.Cells))
		if k < 2 {
			// A box corner: off the outline at an L's cut corner.
			return layout.Pin{Name: "p", Pos: l.Cells[ci].Box.Corners()[r.Intn(4)], Cell: layout.CellID(ci)}
		}
		return boundaryPin(l, r, ci)
	case k < 15:
		*kinds = append(*kinds, "pin on bounds max edge")
		if r.Intn(2) == 0 {
			return pad(geom.Pt(b.MaxX, lattice(b.MinY, b.MaxY)))
		}
		return pad(geom.Pt(lattice(b.MinX, b.MaxX), b.MaxY))
	case k < 17:
		// A slot line, where the midpoint splits tend to fall.
		line := sx + slot*geom.Coord(r.Intn(3))
		return pad(geom.Pt(line, lattice(sx, sx+3*slot)))
	case k < 19:
		return pad(geom.Pt(lattice(sx, sx+3*slot), lattice(sx, sx+3*slot)))
	default:
		if r.Intn(2) == 0 {
			return pad(geom.Pt(b.MinX, b.MinY-1))
		}
		return layout.Pin{Name: "p", Pos: b.Corners()[0], Cell: layout.CellID(len(l.Cells))}
	}
}

// validateCase draws one case for the property test and the fuzz target:
// an edit of a base, perhaps with a whole-layout fault, or an index layout.
// It returns the layout and the names of what it holds.
func validateCase(bases []*layout.Layout, r *rand.Rand) (*layout.Layout, []string) {
	if r.Intn(2) == 0 {
		return indexLayout(r)
	}
	ed := randomEdit(bases[r.Intn(len(bases))], r)
	l, _, _ := ed.apply()
	kinds := ed.planted
	if r.Intn(3) == 0 {
		f := layoutFaults[r.Intn(len(layoutFaults))]
		f.plant(l, &l.Cells[r.Intn(len(l.Cells))], r)
		kinds = append(kinds, f.name)
	}
	return l, kinds
}

// TestValidateMatchesNaive holds Validate to validateNaive's verdict and
// error text on thousands of drawn cases. Every index edge case and every
// whole-layout fault must be drawn, each index edge case must meet both
// verdicts where it can, and every error kind in errTexts must be drawn,
// so no part of the generator is vacuous.
func TestValidateMatchesNaive(t *testing.T) {
	cases := 6000
	if testing.Short() {
		cases = 1500
	}
	bases := editBases(t)
	r := rand.New(rand.NewSource(19))
	type tally struct{ valid, invalid int }
	kinds := map[string]*tally{}
	errs := map[string]int{}
	for k := 0; k < cases; k++ {
		l, names := validateCase(bases, r)
		err := checkNaive(t, l, fmt.Sprintf("case %d %v", k, names))
		if len(names) == 0 {
			names = []string{"(nothing planted)"}
		}
		seen := map[string]bool{}
		for _, name := range names {
			if seen[name] {
				continue
			}
			seen[name] = true
			if kinds[name] == nil {
				kinds[name] = &tally{}
			}
			if err == nil {
				kinds[name].valid++
			} else {
				kinds[name].invalid++
			}
		}
		for _, s := range errTexts {
			if err != nil && strings.Contains(err.Error(), s) {
				errs[s]++
			}
		}
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-32s valid %4d, invalid %4d", name, kinds[name].valid, kinds[name].invalid)
	}
	want := []string{"corner cluster", "negative origin", "near MaxInt64", "near MinInt64",
		"chip-sized cell", "zero cells", "one cell", "pin on bounds max edge"}
	for _, name := range want {
		if c := kinds[name]; c == nil || c.valid == 0 || c.invalid == 0 {
			t.Errorf("index case %q: drawn %+v; want both verdicts", name, c)
		}
	}
	if c := kinds["identical cells"]; c == nil || c.invalid == 0 {
		t.Errorf("index case \"identical cells\": drawn %+v; want it rejected", c)
	}
	for _, f := range layoutFaults {
		if kinds[f.name] == nil {
			t.Errorf("whole-layout fault %q never drawn", f.name)
		}
	}
	for _, s := range errTexts {
		t.Logf("error %-26q %4d", s, errs[s])
		if errs[s] == 0 {
			t.Errorf("no case drew the error %q", s)
		}
	}
}

// errTexts are the error kinds TestValidateMatchesNaive must draw, by a
// substring of their text.
var errTexts = []string{"touch or overlap", "strictly inside", "must lie on the boundary", "outside bounds",
	"out of range", "no name", "duplicate cell name", "does not match polygon", "polygon:"}

// FuzzValidate runs the property test's check on cases the fuzzer scripts
// through the same generator.
func FuzzValidate(f *testing.F) {
	bases := editBases(f)
	f.Add([]byte{0, 5, 2, 9, 1, 1, 0, 3, 7, 7, 7})
	f.Add([]byte{0, 3, 1, 200, 2, 1, 0, 4, 19, 0, 0, 8, 12, 40})
	f.Add([]byte{1, 2, 6, 0, 14, 9, 9, 1, 200, 17, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		l, names := validateCase(bases, rand.New(&scriptSource{b: script}))
		checkNaive(t, l, fmt.Sprintf("case %v", names))
	})
}

// BenchmarkValidateMacroGrid measures whole-layout validation of seeded
// macro grids, the layouts NewEngine prepares in perfbench, and reports
// validate-ms per call. CI bounds the 64×64 case: the all-pairs loops take
// hundreds of milliseconds there, the box index a few.
func BenchmarkValidateMacroGrid(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("MacroGrid%d", n), func(b *testing.B) {
			l, err := gen.MacroGrid(n, n, 40, 30, 12, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				if err := l.Validate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(t0).Microseconds())/1e3/float64(b.N), "validate-ms")
		})
	}
}
