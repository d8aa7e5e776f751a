// Passage extraction: the setup cost of every congestion flow.
//
// The seed-era extractor enumerated all O(n²) cell pairs and scanned every
// third cell per candidate corridor — O(n³) in cells, the dominant setup
// cost at macro scale (4096 cells and up). The extractor here is
// near-linear instead:
//
//   - Facing-pair candidates come from two plane sweeps over the cells'
//     edge coordinates (one per axis). The sweep keeps the cells alive at
//     the sweep line ordered by their cross-axis low edge; cells adjacent
//     in that order are the only ones that can face each other across an
//     unobstructed corridor, and adjacency changes only at cell starts and
//     ends, so O(n) candidate pairs surface across O(n) events.
//   - The intrusion test — "does a third cell poke into this corridor" —
//     is plane.Index.RectIntersects, a rectangle stab against the index's
//     interval trees: O(log n + answers) with an early exit, instead of a
//     scan over every cell.
//
// The sweep's adjacency argument needs pairwise interior-disjoint
// obstacles (what every valid layout of rectangular cells provides; the
// paper mandates separated cells). Polygon cells index their double
// decomposition, whose rectangles overlap each other, so Extract detects
// interior overlap — one RectIntersects probe per cell — and falls back to
// the quadratic extractor, which handles arbitrary rectangle soup. The
// sweep is pinned to extractNaive, passage for passage, by the randomized
// property and fuzz tests in extract_prop_test.go.
package congest

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/plane"
)

// capacityFor is the passage capacity rule. A crossing wire may hug a
// corridor wall (cells are legal to touch) or must keep a full pitch of
// clearance from it, and wires keep a pitch from each other. A corridor at
// least one pitch wide therefore fits wires on both walls plus one per
// further pitch of width — capacity gap/pitch + 1 — while a corridor
// narrower than one pitch fits nothing at all: a wire hugging one wall
// would sit within a pitch of the facing cell, and there is no position a
// full pitch clear of both. The seed's unconditional +1 granted such
// sub-pitch slivers a phantom wire; they now price as capacity 0 (always
// full), which steers routes away from corridors nothing fits through.
// One consequence, covered by TestCapacityRule: capacity is never exactly
// 1 — any corridor wide enough for one through wire is wide enough for two
// wall-hugging ones.
func capacityFor(width, pitch geom.Coord) int {
	if width < pitch {
		return 0
	}
	return int(width/pitch) + 1
}

// pairPassage builds the corridor candidate between two cells, normalized
// so Between[0] is the lower-coordinate cell, or ok=false when the cells
// do not face across a positive-width gap. No intrusion check is made.
func pairPassage(ci, cj geom.Rect, i, j int) (Passage, bool) {
	if ov := geom.Overlap1D(ci.MinY, ci.MaxY, cj.MinY, cj.MaxY); ov > 0 {
		// Horizontal adjacency (vertical corridor).
		lo, hi := geom.Max(ci.MinY, cj.MinY), geom.Min(ci.MaxY, cj.MaxY)
		if ci.MaxX < cj.MinX {
			return Passage{Between: [2]int{i, j}, Vertical: true,
				Rect: geom.R(ci.MaxX, lo, cj.MinX, hi), Width: cj.MinX - ci.MaxX}, true
		}
		if cj.MaxX < ci.MinX {
			return Passage{Between: [2]int{j, i}, Vertical: true,
				Rect: geom.R(cj.MaxX, lo, ci.MinX, hi), Width: ci.MinX - cj.MaxX}, true
		}
		return Passage{}, false
	}
	if ov := geom.Overlap1D(ci.MinX, ci.MaxX, cj.MinX, cj.MaxX); ov > 0 {
		// Vertical adjacency (horizontal corridor).
		lo, hi := geom.Max(ci.MinX, cj.MinX), geom.Min(ci.MaxX, cj.MaxX)
		if ci.MaxY < cj.MinY {
			return Passage{Between: [2]int{i, j}, Vertical: false,
				Rect: geom.R(lo, ci.MaxY, hi, cj.MinY), Width: cj.MinY - ci.MaxY}, true
		}
		if cj.MaxY < ci.MinY {
			return Passage{Between: [2]int{j, i}, Vertical: false,
				Rect: geom.R(lo, cj.MaxY, hi, ci.MinY), Width: ci.MinY - cj.MaxY}, true
		}
	}
	return Passage{}, false
}

// boundaryPassages returns the four cell-to-boundary strip candidates of
// one cell, in the canonical left/right/bottom/top order. Strips may be
// degenerate (zero width); admit filters those.
func boundaryPassages(b, ci geom.Rect, i int) [4]Passage {
	return [4]Passage{
		{Between: [2]int{Boundary, i}, Vertical: true,
			Rect: geom.R(b.MinX, ci.MinY, ci.MinX, ci.MaxY), Width: ci.MinX - b.MinX},
		{Between: [2]int{i, Boundary}, Vertical: true,
			Rect: geom.R(ci.MaxX, ci.MinY, b.MaxX, ci.MaxY), Width: b.MaxX - ci.MaxX},
		{Between: [2]int{Boundary, i}, Vertical: false,
			Rect: geom.R(ci.MinX, b.MinY, ci.MaxX, ci.MinY), Width: ci.MinY - b.MinY},
		{Between: [2]int{i, Boundary}, Vertical: false,
			Rect: geom.R(ci.MinX, ci.MaxY, ci.MaxX, b.MaxY), Width: b.MaxY - ci.MaxY},
	}
}

// CheckWalls checks a passage list kept beside ix, as a journal base keeps
// one: each passage must be the corridor or boundary strip its two walls
// form in ix, with the Between, Vertical, Rect and Width that pairPassage
// or boundaryPassages derive, so walls named in another obstacle numbering
// fail. Capacity and intrusion are not checked: it costs O(passages).
func CheckWalls(ix *plane.Index, passages []Passage) error {
	wall := func(id int) bool { return id >= 0 && id < ix.NumCells() }
	for pi, p := range passages {
		p.Capacity = 0
		a, c := p.Between[0], p.Between[1]
		formed := false
		switch {
		case wall(a) && wall(c):
			q, ok := pairPassage(ix.Cell(a), ix.Cell(c), a, c)
			formed = ok && q == p
		case a == Boundary && wall(c), c == Boundary && wall(a):
			owner := max(a, c)
			strips := boundaryPassages(ix.Bounds(), ix.Cell(owner), owner)
			formed = slices.Contains(strips[:], p)
		}
		if !formed {
			return fmt.Errorf("congest: passage %d %v between %v is not the corridor its walls form", pi, p.Rect, p.Between)
		}
	}
	return nil
}

// admit validates a candidate passage — positive corridor, no third cell
// intruding (a rectangle stab with the passage's own cells excluded;
// Boundary is negative and never matches) — and stamps its capacity.
func admit(ix *plane.Index, p *Passage, pitch geom.Coord) bool {
	if p.Width <= 0 || !p.Rect.IsValid() {
		return false
	}
	if ix.RectIntersects(p.Rect, p.Between[0], p.Between[1]) {
		return false
	}
	p.Capacity = capacityFor(p.Width, pitch)
	return true
}

// sortPassages puts a passage list into the canonical deterministic order:
// by corridor rect, vertical before horizontal, then the Between pair.
// The trailing tie-breaks never fire on separated layouts (distinct
// corridors have distinct rects there); they make the order total so the
// sweep, the naive extractor and the incremental splice agree exactly.
func sortPassages(out []Passage) {
	sort.Slice(out, func(a, c int) bool {
		ra, rc := out[a].Rect, out[c].Rect
		if ra.MinX != rc.MinX {
			return ra.MinX < rc.MinX
		}
		if ra.MinY != rc.MinY {
			return ra.MinY < rc.MinY
		}
		if ra.MaxX != rc.MaxX {
			return ra.MaxX < rc.MaxX
		}
		if ra.MaxY != rc.MaxY {
			return ra.MaxY < rc.MaxY
		}
		if out[a].Vertical != out[c].Vertical {
			return out[a].Vertical
		}
		if out[a].Between[0] != out[c].Between[0] {
			return out[a].Between[0] < out[c].Between[0]
		}
		return out[a].Between[1] < out[c].Between[1]
	})
}

// hasInteriorOverlap reports whether any two obstacles' interiors overlap
// — the condition under which the sweep's adjacency argument breaks and
// extraction falls back to the quadratic scan. One early-exit rectangle
// stab per cell: O(n log n) when disjoint, usually O(log n) when not.
func hasInteriorOverlap(ix *plane.Index) bool {
	for i, n := 0, ix.NumCells(); i < n; i++ {
		if ix.RectIntersects(ix.Cell(i), i) {
			return true
		}
	}
	return false
}

// Extract enumerates the passages of an obstacle index. A cell pair yields
// a passage when the cells face each other with positive span overlap and
// no third cell intrudes into the corridor; each cell also forms passages
// with the routing boundary it faces. pitch is the minimum wire spacing;
// see capacityFor for the capacity rule (gap/pitch + 1, but 0 below one
// pitch). Near-linear via plane sweep + interval-tree stabs on
// interior-disjoint obstacle sets (every valid rectangular-cell layout);
// indexes with overlapping obstacles — polygon double decompositions —
// take the quadratic path.
func Extract(ix *plane.Index, pitch geom.Coord) ([]Passage, error) {
	if pitch <= 0 {
		return nil, fmt.Errorf("congest: pitch must be positive, got %d", pitch)
	}
	if hasInteriorOverlap(ix) {
		return extractNaive(ix, pitch), nil
	}
	return extractSweep(ix, pitch), nil
}

// extractSweep is the near-linear extraction over interior-disjoint cells.
func extractSweep(ix *plane.Index, pitch geom.Coord) []Passage {
	n := ix.NumCells()
	b := ix.Bounds()
	pairs := appendSweepPairs(nil, ix, true)
	pairs = appendSweepPairs(pairs, ix, false)
	pairs = dedupePairs(pairs)
	out := make([]Passage, 0, len(pairs)+2*n)
	for _, pr := range pairs {
		a, c := int(pr[0]), int(pr[1])
		if p, ok := pairPassage(ix.Cell(a), ix.Cell(c), a, c); ok && admit(ix, &p, pitch) {
			out = append(out, p)
		}
	}
	for i := 0; i < n; i++ {
		for _, p := range boundaryPassages(b, ix.Cell(i), i) {
			if admit(ix, &p, pitch) {
				out = append(out, p)
			}
		}
	}
	sortPassages(out)
	return out
}

// extractNaive is the seed-era quadratic extractor: every cell pair
// enumerated, every corridor checked against every third cell. It is the
// reference implementation the sweep is property-tested against, and the
// fallback for obstacle sets with overlapping interiors, where the
// sweep's adjacency argument does not hold.
func extractNaive(ix *plane.Index, pitch geom.Coord) []Passage {
	var out []Passage
	n := ix.NumCells()
	b := ix.Bounds()
	add := func(p Passage) {
		if p.Width <= 0 || !p.Rect.IsValid() {
			return
		}
		// Reject corridors another cell intrudes into: those decompose
		// into the narrower passages formed with the intruder itself.
		for k := 0; k < n; k++ {
			if k != p.Between[0] && k != p.Between[1] && ix.Cell(k).IntersectsStrict(p.Rect) {
				return
			}
		}
		p.Capacity = capacityFor(p.Width, pitch)
		out = append(out, p)
	}
	for i := 0; i < n; i++ {
		ci := ix.Cell(i)
		for j := i + 1; j < n; j++ {
			if p, ok := pairPassage(ci, ix.Cell(j), i, j); ok {
				add(p)
			}
		}
		for _, p := range boundaryPassages(b, ci, i) {
			add(p)
		}
	}
	sortPassages(out)
	return out
}

// sweepEvent is one cell start or end along the sweep axis.
type sweepEvent struct {
	at     geom.Coord
	insert bool
	cell   int32
}

// sortEvents orders events by coordinate, removals before insertions at
// the same coordinate (cells touching edge-to-edge are never co-active),
// then cell id for determinism.
func sortEvents(events []sweepEvent) {
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.insert != eb.insert {
			return !ea.insert
		}
		return ea.cell < eb.cell
	})
}

// sweepLine is the sweep's active list: the cells alive at the sweep line,
// kept sorted by (cross-axis low edge, cell id). With interior-disjoint
// cells the co-active set is pairwise span-disjoint on the cross axis, so
// list adjacency is exactly geometric adjacency, and every facing pair
// with an unobstructed corridor is list-adjacent throughout the open
// overlap band of the two cells — insertions and removals therefore
// surface every such pair as an adjacency candidate.
type sweepLine struct {
	key    []geom.Coord // per-cell cross-axis low edge
	active []int32
}

func (s *sweepLine) less(a, b int32) bool {
	if s.key[a] != s.key[b] {
		return s.key[a] < s.key[b]
	}
	return a < b
}

func (s *sweepLine) pos(c int32) int {
	return sort.Search(len(s.active), func(k int) bool { return !s.less(s.active[k], c) })
}

// insert files c and appends its new neighbor adjacencies to dst.
func (s *sweepLine) insert(dst [][2]int32, c int32) [][2]int32 {
	k := s.pos(c)
	if k > 0 {
		dst = append(dst, normPair(s.active[k-1], c))
	}
	if k < len(s.active) {
		dst = append(dst, normPair(c, s.active[k]))
	}
	s.active = append(s.active, 0)
	copy(s.active[k+1:], s.active[k:])
	s.active[k] = c
	return dst
}

// remove unfiles c and appends the adjacency its departure creates.
func (s *sweepLine) remove(dst [][2]int32, c int32) [][2]int32 {
	k := s.pos(c)
	if k < len(s.active) && s.active[k] == c {
		if k > 0 && k+1 < len(s.active) {
			dst = append(dst, normPair(s.active[k-1], s.active[k+1]))
		}
		s.active = append(s.active[:k], s.active[k+1:]...)
	}
	return dst
}

// normPair orders a candidate pair by id.
func normPair(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// dedupePairs sorts and uniques a candidate pair list (the same pair can
// become adjacent several times as intermediate cells come and go).
func dedupePairs(pairs [][2]int32) [][2]int32 {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	out := pairs[:0]
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// appendSweepPairs runs one full plane sweep and appends every adjacency
// candidate. ySweep true sweeps a horizontal line upward, surfacing the
// horizontally-facing pairs (vertical corridors); false sweeps a vertical
// line rightward for the vertically-facing pairs.
func appendSweepPairs(dst [][2]int32, ix *plane.Index, ySweep bool) [][2]int32 {
	n := ix.NumCells()
	line := sweepLine{key: make([]geom.Coord, n)}
	events := make([]sweepEvent, 0, 2*n)
	for i := 0; i < n; i++ {
		c := ix.Cell(i)
		lo, hi := c.MinY, c.MaxY
		line.key[i] = c.MinX
		if !ySweep {
			lo, hi = c.MinX, c.MaxX
			line.key[i] = c.MinY
		}
		events = append(events,
			sweepEvent{at: lo, insert: true, cell: int32(i)},
			sweepEvent{at: hi, insert: false, cell: int32(i)})
	}
	sortEvents(events)
	for _, e := range events {
		if e.insert {
			dst = line.insert(dst, e.cell)
		} else {
			dst = line.remove(dst, e.cell)
		}
	}
	return dst
}

// appendWindowSweepPairs is appendSweepPairs restricted to the open sweep
// window (w0, w1): only cells alive somewhere inside the window take part,
// the active list is pre-seeded with the cells already alive at w0 (their
// standing adjacencies emitted wholesale), and events at or beyond w1 are
// dropped — adjacency born at w1 can only matter to corridors whose
// overlap band lies entirely outside the window. Every facing pair whose
// corridor band interior meets the window interior is surfaced.
func appendWindowSweepPairs(dst [][2]int32, ix *plane.Index, ySweep bool, w0, w1 geom.Coord) [][2]int32 {
	if w1 <= w0 {
		return dst
	}
	var ids []int32
	if ySweep {
		ids = ix.AppendYOverlapping(nil, w0, w1)
	} else {
		ids = ix.AppendXOverlapping(nil, w0, w1)
	}
	if len(ids) == 0 {
		return dst
	}
	line := sweepLine{key: make([]geom.Coord, ix.NumCells())}
	var events []sweepEvent
	var initial []int32
	for _, ci := range ids {
		c := ix.Cell(int(ci))
		lo, hi := c.MinY, c.MaxY
		line.key[ci] = c.MinX
		if !ySweep {
			lo, hi = c.MinX, c.MaxX
			line.key[ci] = c.MinY
		}
		if lo <= w0 {
			initial = append(initial, ci)
		} else {
			events = append(events, sweepEvent{at: lo, insert: true, cell: ci})
		}
		if hi < w1 {
			events = append(events, sweepEvent{at: hi, insert: false, cell: ci})
		}
	}
	sort.Slice(initial, func(a, b int) bool { return line.less(initial[a], initial[b]) })
	line.active = initial
	for k := 0; k+1 < len(line.active); k++ {
		dst = append(dst, normPair(line.active[k], line.active[k+1]))
	}
	sortEvents(events)
	for _, e := range events {
		if e.insert {
			dst = line.insert(dst, e.cell)
		} else {
			dst = line.remove(dst, e.cell)
		}
	}
	return dst
}

// ExtractEdit incrementally re-extracts the passage set after an obstacle
// edit (the congestion-side twin of plane.Index's corner-table splice).
// Passages the edit cannot have touched are kept — their Between ids
// renumbered through remap — and only the corridors whose validity could
// have changed are rediscovered: a corridor's passage status depends
// on exactly the obstacles strictly intersecting it, so it can flip only
// if it strictly intersects a removed rectangle (a vanished intruder), or
// strictly intersects an added rectangle (a fresh intruder), or has an
// edited cell as one of its own walls. The rediscovery runs the candidate
// sweeps restricted to the dirty window — the coordinate span of the
// removed and added rectangles — and admits, via the same interval-tree
// stab, exactly the candidates matching that relevance test. The
// expensive work — corridor re-derivation with its intrusion stabs — is
// thereby confined to the edit neighborhood; what stays proportional to
// the layout are three cheap per-commit scans (the interior-overlap probe
// guarding the fallback, the kept-passage remap/filter, and the canonical
// sort): ~2 ms total on the 64×64 grid against the ~840 ms full
// re-extraction this replaces.
//
// ix is the post-edit index and old the pre-edit passage set extracted at
// the same pitch; remap maps each pre-edit obstacle id to its post-edit id,
// -1 for an obstacle the edit removed or replaced; removedRects are those
// obstacles' pre-edit rectangles and addedIDs the post-edit ids of the new
// ones: after plane.Index.Edit, its remap and the trailing ids; after
// plane.Index.Replace (a cell move), the identity with -1 at the replaced
// ids, and those same ids.
//
// Equivalence guarantee: the result is exactly Extract(ix, pitch) — same
// passages, same canonical order — pinned by the randomized property and
// fuzz tests in extract_prop_test.go and, at the public API level, by
// TestECOCommitPassagesMatchFreshExtract. Indexes with overlapping
// obstacle interiors (polygon decompositions) fall back to a full
// extraction, like Extract itself.
func ExtractEdit(ix *plane.Index, pitch geom.Coord, old []Passage, remap []int32, removedRects []geom.Rect, addedIDs []int) ([]Passage, error) {
	if pitch <= 0 {
		return nil, fmt.Errorf("congest: pitch must be positive, got %d", pitch)
	}
	if hasInteriorOverlap(ix) {
		return extractNaive(ix, pitch), nil
	}
	dirty := append([]geom.Rect(nil), removedRects...)
	for _, id := range addedIDs {
		dirty = append(dirty, ix.Cell(id))
	}
	intersectsDirty := func(r geom.Rect) bool {
		for _, d := range dirty {
			if d.IntersectsStrict(r) {
				return true
			}
		}
		return false
	}
	isAdded := func(id int) bool {
		for _, a := range addedIDs {
			if id == a {
				return true
			}
		}
		return false
	}

	// The dirty window: the coordinate span of everything that moved.
	// Every dirty rect lies inside it, so it doubles as the bbox prefilter
	// for the per-passage dirty test below.
	var win geom.Rect
	if len(dirty) > 0 {
		win = dirty[0]
		for _, d := range dirty[1:] {
			win = win.Union(d)
		}
	}

	// 1. Keep every passage the edit cannot have touched: walls survive
	// (renumbered) and no added rectangle pokes into the corridor. Removed
	// rectangles never block a kept corridor — they were obstacles before
	// the edit, so a then-valid corridor cannot strictly intersect one.
	out := make([]Passage, 0, len(old)+16)
	for _, p := range old {
		q := p
		keep := true
		for s := 0; s < 2 && keep; s++ {
			if id := p.Between[s]; id >= 0 {
				if id >= len(remap) || remap[id] < 0 {
					keep = false
				} else {
					q.Between[s] = int(remap[id])
				}
			}
		}
		if keep && (!win.IntersectsStrict(p.Rect) || !intersectsDirty(p.Rect)) {
			out = append(out, q)
		}
	}
	if len(dirty) == 0 {
		sortPassages(out)
		return out, nil
	}

	// 2. Rediscover facing pairs inside the window. A pair is relevant —
	// and, by step 1, not already kept — exactly when one of its walls is
	// an added obstacle or its corridor strictly intersects a dirty
	// rectangle.
	pairs := appendWindowSweepPairs(nil, ix, true, win.MinY, win.MaxY)
	pairs = appendWindowSweepPairs(pairs, ix, false, win.MinX, win.MaxX)
	pairs = dedupePairs(pairs)
	for _, pr := range pairs {
		a, c := int(pr[0]), int(pr[1])
		p, ok := pairPassage(ix.Cell(a), ix.Cell(c), a, c)
		if !ok {
			continue
		}
		if !isAdded(a) && !isAdded(c) && !intersectsDirty(p.Rect) {
			continue
		}
		if admit(ix, &p, pitch) {
			out = append(out, p)
		}
	}

	// 3. Rediscover boundary strips. A strip is relevant under the same
	// test; the candidate owners are the added cells plus every cell whose
	// row band (for left/right strips) or column band (top/bottom) meets a
	// dirty rectangle.
	b := ix.Bounds()
	var stripOwners []int32
	for _, d := range dirty {
		stripOwners = ix.AppendYOverlapping(stripOwners, d.MinY, d.MaxY)
		stripOwners = ix.AppendXOverlapping(stripOwners, d.MinX, d.MaxX)
	}
	for _, id := range addedIDs {
		stripOwners = append(stripOwners, int32(id))
	}
	sort.Slice(stripOwners, func(a, c int) bool { return stripOwners[a] < stripOwners[c] })
	var prev int32 = -1
	for _, ci := range stripOwners {
		if ci == prev {
			continue
		}
		prev = ci
		added := isAdded(int(ci))
		for _, p := range boundaryPassages(b, ix.Cell(int(ci)), int(ci)) {
			if !added && !intersectsDirty(p.Rect) {
				continue
			}
			if admit(ix, &p, pitch) {
				out = append(out, p)
			}
		}
	}
	sortPassages(out)
	return out, nil
}
