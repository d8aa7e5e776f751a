package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	stdfnv "hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/router"
	"repro/internal/search"
)

// fixtureSession builds a routed session snapshot with every field class
// populated: passages, found and failed nets, multi-segment paths, history.
func fixtureSession() *Session {
	return &Session{
		LayoutHash: 0xdeadbeefcafe,
		Pitch:      4,
		Passages: []congest.Passage{
			{Between: [2]int{0, 1}, Rect: geom.R(10, 0, 20, 50), Vertical: true, Width: 10, Capacity: 2},
			{Between: [2]int{congest.Boundary, 0}, Rect: geom.R(0, 0, 10, 50), Width: 10, Capacity: 2},
		},
		Routed: true,
		Nets: []router.NetRoute{
			{
				Found:  true,
				Length: 12,
				Stats:  search.Stats{Expanded: 3, Generated: 7, Reopened: 1, MaxOpen: 4},
				Paths:  [][]geom.Point{{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(5, 7)}},
				Segments: []geom.Seg{
					geom.S(geom.Pt(0, 0), geom.Pt(5, 0)),
					geom.S(geom.Pt(5, 0), geom.Pt(5, 7)),
				},
			},
			{Found: false, FailedTerminal: "t1"},
		},
		History: []int{2, 0},
	}
}

// fixtureNegotiating returns the routed fixture session with a negotiation
// in flight: a mid-pass one when inPass, else one at a pass boundary.
func fixtureNegotiating(inPass bool) *Session {
	s := fixtureSession()
	cp := &congest.Checkpoint{
		PassesRecorded: 2,
		ReroutePass:    1,
		History:        []int{1, 3},
		Nets: []router.NetRoute{
			{Found: true, Length: 4, Paths: [][]geom.Point{{geom.Pt(0, 0), geom.Pt(4, 0)}},
				Segments: []geom.Seg{geom.S(geom.Pt(0, 0), geom.Pt(4, 0))}},
			{Found: true, Length: 6, Paths: [][]geom.Point{{geom.Pt(0, 2), geom.Pt(6, 2)}},
				Segments: []geom.Seg{geom.S(geom.Pt(0, 2), geom.Pt(6, 2))}},
		},
	}
	if inPass {
		cp.ReroutePass = 2
		cp.Pass = &congest.PassState{
			Changed:    true,
			Ripped:     []bool{true, false},
			Initial:    []int{0, 1},
			InitialPos: 1,
			Rerouted:   []string{"a"},
		}
	}
	s.Negotiation = cp
	return s
}

func TestSessionRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Session
	}{
		{"routed", fixtureSession()},
		{"prepared-only", &Session{LayoutHash: 7, Pitch: 8,
			Passages: []congest.Passage{{Between: [2]int{0, 1}, Rect: geom.R(0, 0, 4, 4), Width: 4, Capacity: 1}}}},
		{"negotiating-pass-boundary", fixtureNegotiating(false)},
		{"negotiating-mid-pass", fixtureNegotiating(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeSession(EncodeSession(tc.s))
			if err != nil {
				t.Fatal(err)
			}
			if got.LayoutHash != tc.s.LayoutHash || got.Pitch != tc.s.Pitch || got.Routed != tc.s.Routed {
				t.Fatalf("header fields differ: %+v vs %+v", got, tc.s)
			}
			if len(got.Passages) != len(tc.s.Passages) {
				t.Fatalf("passages %d, want %d", len(got.Passages), len(tc.s.Passages))
			}
			for i := range got.Passages {
				if got.Passages[i] != tc.s.Passages[i] {
					t.Fatalf("passage %d = %+v, want %+v", i, got.Passages[i], tc.s.Passages[i])
				}
			}
			if len(got.Nets) != len(tc.s.Nets) {
				t.Fatalf("nets %d, want %d", len(got.Nets), len(tc.s.Nets))
			}
			for i := range got.Nets {
				checkNetRoute(t, &got.Nets[i], &tc.s.Nets[i])
			}
			if len(got.History) != len(tc.s.History) {
				t.Fatalf("history %v, want %v", got.History, tc.s.History)
			}
			checkNegotiation(t, got.Negotiation, tc.s.Negotiation)
		})
	}
}

// checkNegotiation compares a decoded negotiation in flight to the
// original, field by field.
func checkNegotiation(t *testing.T, g, w *congest.Checkpoint) {
	t.Helper()
	if (g == nil) != (w == nil) {
		t.Fatalf("negotiation %+v, want %+v", g, w)
	}
	if w == nil {
		return
	}
	if g.PassesRecorded != w.PassesRecorded || g.ReroutePass != w.ReroutePass ||
		(g.Pass == nil) != (w.Pass == nil) {
		t.Fatalf("scalars = %+v, want %+v", g, w)
	}
	if len(g.Nets) != len(w.Nets) {
		t.Fatalf("negotiation nets %d, want %d", len(g.Nets), len(w.Nets))
	}
	for i := range g.Nets {
		checkNetRoute(t, &g.Nets[i], &w.Nets[i])
	}
	if !slices.Equal(g.History, w.History) {
		t.Fatalf("negotiation history = %v, want %v", g.History, w.History)
	}
	if gp, wp := g.Pass, w.Pass; wp != nil {
		if gp.Changed != wp.Changed || gp.InitialPos != wp.InitialPos ||
			!slices.Equal(gp.Ripped, wp.Ripped) || !slices.Equal(gp.Initial, wp.Initial) ||
			!slices.Equal(gp.Rerouted, wp.Rerouted) {
			t.Fatalf("pass state = %+v, want %+v", gp, wp)
		}
	}
}

// checkNetRoute compares a decoded route to the original: everything except
// the Net name (positional, filled by the loader) must round-trip, with
// Segments rebuilt from Paths.
func checkNetRoute(t *testing.T, got, want *router.NetRoute) {
	t.Helper()
	if got.Found != want.Found || got.FailedTerminal != want.FailedTerminal ||
		got.Length != want.Length || got.Stats != want.Stats {
		t.Fatalf("route fields = %+v, want %+v", got, want)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("paths %d, want %d", len(got.Paths), len(want.Paths))
	}
	for i := range got.Paths {
		if len(got.Paths[i]) != len(want.Paths[i]) {
			t.Fatalf("path %d length differs", i)
		}
		for j := range got.Paths[i] {
			if got.Paths[i][j] != want.Paths[i][j] {
				t.Fatalf("path %d point %d = %v, want %v", i, j, got.Paths[i][j], want.Paths[i][j])
			}
		}
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("segments %v, want %v (rebuilt from paths)", got.Segments, want.Segments)
	}
	for i := range got.Segments {
		if got.Segments[i] != want.Segments[i] {
			t.Fatalf("segment %d = %v, want %v", i, got.Segments[i], want.Segments[i])
		}
	}
}

// TestDecodeTypedErrors: payloads that do not decode to a session fail as
// corrupt, never panic or mis-decode. The decoder reads what a rebase
// record's CRC already vouched for, so these are bytes a faulty writer
// could have checksummed; internal/journal tests the frame around them.
func TestDecodeTypedErrors(t *testing.T) {
	valid := EncodeSession(fixtureSession())

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeSession(nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeSession(valid[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload cut to %d of %d bytes: err = %v, want ErrCorrupt", n, len(valid), err)
			}
		}
	})
	t.Run("checksummed-garbage", func(t *testing.T) {
		if _, err := DecodeSession(bytes.Repeat([]byte{0xff}, 64)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing-garbage-in-payload", func(t *testing.T) {
		payload := append(append([]byte(nil), valid...), 0, 0, 0)
		if _, err := DecodeSession(payload); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("forged-huge-length", func(t *testing.T) {
		// A forged passage count far beyond the remaining bytes must fail
		// before anything is allocated for it.
		e := &Encoder{}
		e.U64(1)
		e.Varint(4)
		e.Uvarint(1 << 40)
		if _, err := DecodeSession(e.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("diagonal-path", func(t *testing.T) {
		// A checksum-valid payload whose path steps diagonally must be
		// rejected (the geometry layer would panic on it).
		s := fixtureSession()
		s.Nets[0].Paths = [][]geom.Point{{geom.Pt(0, 0), geom.Pt(5, 7)}}
		s.Nets[0].Segments = nil
		if _, err := DecodeSession(EncodeSession(s)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// TestDecodeRejectsInconsistentNegotiation: a negotiation in flight that
// passes its checksum but would not resume into the session it travels
// with fails the decode as corrupt, before anything tries to resume it.
func TestDecodeRejectsInconsistentNegotiation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inPass bool
		break_ func(cp *congest.Checkpoint)
	}{
		{"history-longer-than-passages", false, func(cp *congest.Checkpoint) { cp.History = append(cp.History, 0) }},
		{"history-shorter-than-passages", true, func(cp *congest.Checkpoint) { cp.History = cp.History[:1] }},
		{"negative-history", false, func(cp *congest.Checkpoint) { cp.History[0] = -1 }},
		{"routes-other-nets", false, func(cp *congest.Checkpoint) { cp.Nets = cp.Nets[:1] }},
		{"mid-pass-before-reroute", true, func(cp *congest.Checkpoint) { cp.ReroutePass = 0 }},
		{"rip-flags-short", true, func(cp *congest.Checkpoint) { cp.Pass.Ripped = cp.Pass.Ripped[:1] }},
		{"rip-index-out-of-range", true, func(cp *congest.Checkpoint) { cp.Pass.Initial = []int{0, 2} }},
		{"rip-position-out-of-range", true, func(cp *congest.Checkpoint) { cp.Pass.InitialPos = 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := fixtureNegotiating(tc.inPass)
			tc.break_(s.Negotiation)
			if _, err := DecodeSession(EncodeSession(s)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestLayoutHashDiscriminates(t *testing.T) {
	base := func() *layout.Layout {
		return &layout.Layout{
			Name:   "chip",
			Bounds: geom.R(0, 0, 100, 100),
			Cells:  []layout.Cell{{Name: "a", Box: geom.R(10, 10, 30, 30)}},
			Nets: []layout.Net{{Name: "n0", Terminals: []layout.Terminal{
				{Name: "t", Pins: []layout.Pin{{Name: "p", Pos: geom.Pt(5, 5), Cell: layout.NoCell}}},
			}}},
		}
	}
	h0 := LayoutHash(base())
	if h1 := LayoutHash(base()); h1 != h0 {
		t.Fatalf("identical layouts hash %x vs %x", h0, h1)
	}
	mutations := []func(l *layout.Layout){
		func(l *layout.Layout) { l.Cells[0].Box = geom.R(11, 10, 31, 30) }, // cell moved
		func(l *layout.Layout) { l.Nets[0].Name = "renamed" },
		func(l *layout.Layout) { l.Bounds = geom.R(0, 0, 101, 100) },
		func(l *layout.Layout) { l.Nets[0].Terminals[0].Pins[0].Pos = geom.Pt(5, 6) },
		func(l *layout.Layout) { l.Cells = append(l.Cells, layout.Cell{Name: "b", Box: geom.R(50, 50, 60, 60)}) },
	}
	for i, mutate := range mutations {
		l := base()
		mutate(l)
		if LayoutHash(l) == h0 {
			t.Errorf("mutation %d does not change the hash", i)
		}
	}
}

// referenceLayoutHash is LayoutHash's specification: stdlib FNV-1a 64 over
// the length-prefixed encoding, every integer written by
// binary.AppendVarint and every string as its length, then its bytes.
func referenceLayoutHash(l *layout.Layout) uint64 {
	var b []byte
	i := func(v int64) { b = binary.AppendVarint(b, v) }
	str := func(s string) { i(int64(len(s))); b = append(b, s...) }
	rect := func(r geom.Rect) { i(int64(r.MinX)); i(int64(r.MinY)); i(int64(r.MaxX)); i(int64(r.MaxY)) }
	str("genroute-layout-v1")
	str(l.Name)
	rect(l.Bounds)
	i(int64(len(l.Cells)))
	for _, c := range l.Cells {
		str(c.Name)
		rect(c.Box)
		i(int64(len(c.Poly)))
		for _, p := range c.Poly {
			i(int64(p.X))
			i(int64(p.Y))
		}
	}
	i(int64(len(l.Nets)))
	for _, n := range l.Nets {
		str(n.Name)
		i(int64(len(n.Terminals)))
		for _, term := range n.Terminals {
			str(term.Name)
			i(int64(len(term.Pins)))
			for _, p := range term.Pins {
				str(p.Name)
				i(int64(p.Pos.X))
				i(int64(p.Pos.Y))
				i(int64(p.Cell))
			}
		}
	}
	h := stdfnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestLayoutHashMatchesReferenceEncoding pins LayoutHash, which feeds each
// value's bytes straight into the FNV state, to the reference encoding on
// generated layouts (rectangles, polygons, pads) and on one whose values
// span every varint length, negative and extreme ones included.
func TestLayoutHashMatchesReferenceEncoding(t *testing.T) {
	var layouts []*layout.Layout
	keep := func(l *layout.Layout, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		layouts = append(layouts, l)
	}
	keep(gen.MacroGrid(4, 4, 40, 30, 12, 1))
	keep(gen.MacroGrid(32, 32, 40, 30, 12, 9))
	keep(gen.PolyChip(3, 12, 30))
	keep(gen.RandomLayout(gen.Config{Seed: 4, MaxTerminals: 4, MultiPinProb: 30, PadProb: 30}))
	extreme := &layout.Layout{Name: "extreme \u00e9", Bounds: geom.R(math.MinInt64, -1, math.MaxInt64, 1<<62)}
	for k := 0; k < 64; k++ {
		v := geom.Coord(int64(1) << k)
		extreme.Cells = append(extreme.Cells, layout.Cell{Name: strings.Repeat("c", k), Box: geom.R(-v, v-1, v, -v+1)})
		extreme.Nets = append(extreme.Nets, layout.Net{Name: strings.Repeat("n", 2*k), Terminals: []layout.Terminal{
			{Pins: []layout.Pin{{Pos: geom.Pt(-v, v), Cell: layout.CellID(-k)}}},
		}})
	}
	layouts = append(layouts, extreme, &layout.Layout{})
	for _, l := range layouts {
		if got, want := LayoutHash(l), referenceLayoutHash(l); got != want {
			t.Errorf("%q: LayoutHash %016x, reference encoding %016x", l.Name, got, want)
		}
	}
}
