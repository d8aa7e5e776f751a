package main

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
)

// randomScene places `cells` separated random cells on a die x die plane
// and returns the obstacle index plus a generator of free points.
func randomScene(seed int64, die geom.Coord, cells int) (*plane.Index, func() geom.Point) {
	r := rand.New(rand.NewSource(seed))
	var rects []geom.Rect
	minSz, maxSz := die/20+2, die/5+4
	for try := 0; try < 400*cells && len(rects) < cells; try++ {
		w := minSz + geom.Coord(r.Int63n(int64(maxSz-minSz+1)))
		h := minSz + geom.Coord(r.Int63n(int64(maxSz-minSz+1)))
		if w >= die-4 || h >= die-4 {
			continue
		}
		x := 2 + geom.Coord(r.Int63n(int64(die-w-4+1)))
		y := 2 + geom.Coord(r.Int63n(int64(die-h-4+1)))
		c := geom.R(x, y, x+w, y+h)
		ok := true
		for _, e := range rects {
			if c.Inflate(2).Intersects(e) {
				ok = false
				break
			}
		}
		if ok {
			rects = append(rects, c)
		}
	}
	ix, err := plane.New(geom.R(0, 0, die, die), rects)
	if err != nil {
		panic(err)
	}
	free := func() geom.Point {
		for {
			p := geom.Pt(r.Int63n(int64(die+1)), r.Int63n(int64(die+1)))
			if _, blocked := ix.PointBlocked(p); !blocked {
				return p
			}
		}
	}
	return ix, free
}

// randomNetsLayout builds a routable multi-net layout for the C4/C6
// comparisons: cells plus two-pin nets between random cell edges.
func randomNetsLayout(seed int64, cells, nets int) *layout.Layout {
	r := rand.New(rand.NewSource(seed))
	l := &layout.Layout{
		Name:   fmt.Sprintf("chip-%d", seed),
		Bounds: geom.R(0, 0, 1000, 1000),
	}
	for try := 0; try < 400*cells && len(l.Cells) < cells; try++ {
		w := 60 + geom.Coord(r.Int63n(120))
		h := 60 + geom.Coord(r.Int63n(120))
		x := 10 + geom.Coord(r.Int63n(int64(1000-w-20)))
		y := 10 + geom.Coord(r.Int63n(int64(1000-h-20)))
		c := geom.R(x, y, x+w, y+h)
		ok := true
		for _, e := range l.Cells {
			if c.Inflate(10).Intersects(e.Box) {
				ok = false
				break
			}
		}
		if ok {
			l.Cells = append(l.Cells, layout.Cell{Name: fmt.Sprintf("c%d", len(l.Cells)), Box: c})
		}
	}
	edgePoint := func(box geom.Rect) geom.Point {
		switch r.Intn(4) {
		case 0:
			return geom.Pt(box.MinX+geom.Coord(r.Int63n(int64(box.Width()+1))), box.MinY)
		case 1:
			return geom.Pt(box.MinX+geom.Coord(r.Int63n(int64(box.Width()+1))), box.MaxY)
		case 2:
			return geom.Pt(box.MinX, box.MinY+geom.Coord(r.Int63n(int64(box.Height()+1))))
		default:
			return geom.Pt(box.MaxX, box.MinY+geom.Coord(r.Int63n(int64(box.Height()+1))))
		}
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
				{Name: "a", Pins: []layout.Pin{{Name: "p", Pos: edgePoint(l.Cells[a].Box), Cell: layout.CellID(a)}}},
				{Name: "b", Pins: []layout.Pin{{Name: "p", Pos: edgePoint(l.Cells[b].Box), Cell: layout.CellID(b)}}},
			},
		})
	}
	if err := l.Validate(); err != nil {
		panic(err)
	}
	return l
}
