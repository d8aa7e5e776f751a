// Polycell: the paper's orthogonal-polygon extension in action — route a
// chip whose macros are L-, U- and T-shaped, including a pin inside a U
// cavity that is reachable only through the opening, and render the result.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/viz"
)

func main() {
	// A hand-built scene showcasing cavity routing.
	l := &genroute.Layout{
		Name:   "polycell",
		Bounds: genroute.R(0, 0, 300, 200),
		Cells: []genroute.Cell{
			{Name: "U", Poly: []genroute.Point{ // opens upward
				genroute.Pt(40, 30), genroute.Pt(140, 30), genroute.Pt(140, 130),
				genroute.Pt(110, 130), genroute.Pt(110, 60), genroute.Pt(70, 60),
				genroute.Pt(70, 130), genroute.Pt(40, 130),
			}},
			{Name: "L", Poly: []genroute.Point{
				genroute.Pt(180, 40), genroute.Pt(270, 40), genroute.Pt(270, 90),
				genroute.Pt(230, 90), genroute.Pt(230, 150), genroute.Pt(180, 150),
			}},
		},
		Nets: []genroute.Net{
			{Name: "cavity", Terminals: []genroute.Terminal{
				// Deep inside the U's slot; only the top opening works.
				{Name: "u", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(90, 60), Cell: 0}}},
				{Name: "l", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(180, 100), Cell: 1}}},
			}},
			{Name: "notch", Terminals: []genroute.Terminal{
				// In the L's notch corner region.
				{Name: "l", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(230, 100), Cell: 1}}},
				{Name: "pad", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(300, 200), Cell: genroute.NoCell}}},
			}},
			{Name: "skirt", Terminals: []genroute.Terminal{
				{Name: "u", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(40, 80), Cell: 0}}},
				{Name: "pad", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(0, 0), Cell: genroute.NoCell}}},
			}},
		},
	}

	ctx := context.Background()
	e, err := genroute.NewEngine(l, genroute.WithCornerRule())
	if err != nil {
		log.Fatal(err)
	}
	res, err := e.RouteAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Failed) > 0 {
		log.Fatalf("failed: %v", res.Failed)
	}
	if err := e.CheckConnectivity(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routed %d nets over polygon cells, total length %d\n\n",
		len(res.Nets), res.TotalLength)
	for i := range res.Nets {
		nr := &res.Nets[i]
		fmt.Printf("net %-7s length %4d, %3d expansions\n", nr.Net, nr.Length, nr.Stats.Expanded)
	}

	fmt.Println("\nlayout (#: cell, o: pin, *: wire), 1 char = 4x4 units:")
	fmt.Print(viz.Layout(l, res.NetSegments(), 4))

	// A generated polygon chip at scale.
	pc, err := genroute.PolyChip(11, 16, 50)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := genroute.NewEngine(pc, genroute.WithWorkers(0))
	if err != nil {
		log.Fatal(err)
	}
	pres, err := ep.RouteAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated polygon chip: %d cells, %d nets, %d routed, length %d, in %v\n",
		len(pc.Cells), len(pc.Nets), len(pres.Nets)-len(pres.Failed), pres.TotalLength, pres.Elapsed)
}
