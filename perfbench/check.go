package main

import (
	"fmt"

	genroute "repro"
	"repro/internal/congest"
	"repro/internal/geom"
	"repro/internal/plane"
)

// checkRouting verifies a whole-layout routing state independently of the
// engine that produced it: every net is found and physically connected,
// the reported overflow equals a congestion map rebuilt from the routes
// over freshly extracted passages, and the reported wirelength equals the
// sum of the per-net lengths.
func checkRouting(l *genroute.Layout, pitch int64, res *genroute.Result, overflow int) error {
	if len(res.Failed) > 0 {
		return fmt.Errorf("%d nets unrouted (first %q)", len(res.Failed), res.Failed[0])
	}
	if err := genroute.CheckConnectivity(l, res); err != nil {
		return fmt.Errorf("connectivity: %w", err)
	}
	passages, err := extractPassages(l, pitch)
	if err != nil {
		return err
	}
	segs := make([][]geom.Seg, len(res.Nets))
	var sum geom.Coord
	for i := range res.Nets {
		segs[i] = res.Nets[i].Segments
		sum += res.Nets[i].Length
	}
	if got := congest.BuildMap(passages, segs).TotalOverflow(); got != overflow {
		return fmt.Errorf("reported overflow %d, rebuilt map says %d", overflow, got)
	}
	if sum != res.TotalLength {
		return fmt.Errorf("reported wirelength %d, per-net lengths sum to %d", res.TotalLength, sum)
	}
	return nil
}

// extractPassages builds the congestion passages of l from scratch.
func extractPassages(l *genroute.Layout, pitch int64) ([]congest.Passage, error) {
	ix, err := plane.FromLayout(l)
	if err != nil {
		return nil, err
	}
	return congest.Extract(ix, pitch)
}
