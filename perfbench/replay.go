package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	genroute "repro"
	"repro/internal/congest"
	"repro/internal/geom"
	"repro/internal/plane"
)

// replayOut is what an in-process replay of the served session yields.
type replayOut struct {
	wires    []byte    // the state, encoded like GET /wires
	commitMS []float64 // Edit.Commit wall time per committed request
	jrnlBPC  float64   // journal bytes per commit (journaled replay only)
	heapMiB  float64   // heap the replayed session keeps resident
}

// replayECO rebuilds the served session in process — the same layout
// bytes, options and negotiation — and commits the same edit sequence. With
// a journal path the engine journals every commit, as groutd does. With
// record set (the traced run's unjournaled replay) it also records the
// layer metrics of the session and of every commit.
func replayECO(ctx context.Context, e *env, r *run, layoutJSON []byte, hash string, committed [][]ecoOp, journal string, record bool) (*replayOut, error) {
	l, err := genroute.ReadLayout(bytes.NewReader(layoutJSON))
	if err != nil {
		return nil, err
	}
	l.NormalizeBoxes()
	opts := []genroute.Option{genroute.WithWorkers(2), genroute.WithPitch(servePitch)}
	if journal != "" {
		opts = append(opts, genroute.WithJournalFile(journal))
	}
	tr := e.tr
	if !record {
		tr = nil
	}
	if tr != nil {
		setupStages(tr, l, servePitch, r)
	}
	eng, err := genroute.NewEngine(l, opts...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if eng != nil {
			eng.CloseJournal()
		}
	}()
	neg, err := eng.RouteNegotiated(ctx)
	if err != nil {
		return nil, fmt.Errorf("replay negotiation: %w", err)
	}
	if record {
		var ps passSums
		ps.add(neg, eng.Overflow())
		ps.report(r, 1)
		setSearchStats(r, neg.Passes[0].Stats, 1)
		r.set("search.expanded_per_s", float64(neg.Passes[0].Stats.Expanded)/neg.Passes[0].Elapsed.Seconds(), "1/s")
	}

	out := &replayOut{}
	var repair, nonrepair, dirty, rerouted, validate, moveMS, netMS, planeEdit, extractEdit []float64
	m0 := readMem()
	for i, ops := range committed {
		prev := eng.Layout()
		tx := eng.Edit()
		var move *ecoOp
		for k := range ops {
			if err := stage(tx, &ops[k]); err != nil {
				return nil, fmt.Errorf("replay commit %d: %w", i, err)
			}
			if ops[k].Op == "move_cell" {
				move = &ops[k]
			}
		}
		id := tr.begin("eco.commit", -1)
		res, err := tx.Commit(ctx)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("replay commit %d: %w", i, err)
		}
		c := ms(res.Elapsed)
		out.commitMS = append(out.commitMS, c)
		if !record {
			continue
		}
		var rep time.Duration
		nRer := 0
		if res.Repair != nil {
			for _, p := range res.Repair.Passes {
				rep += p.Elapsed
				nRer += len(p.Rerouted)
			}
		}
		repair = append(repair, ms(rep))
		nonrepair = append(nonrepair, c-ms(rep))
		dirty = append(dirty, float64(len(res.Dirty)))
		rerouted = append(rerouted, float64(nRer))
		if move != nil {
			moveMS = append(moveMS, c)
			pe, xe, err := moveStages(tr, prev, move)
			if err != nil {
				return nil, fmt.Errorf("replay commit %d: %w", i, err)
			}
			planeEdit, extractEdit = append(planeEdit, pe), append(extractEdit, xe)
		} else {
			netMS = append(netMS, c)
		}
		edited := eng.Layout().Clone()
		id = tr.begin("layout.validate_edit", -1)
		t := time.Now()
		err = edited.Validate()
		validate = append(validate, sinceMS(t))
		tr.end(id)
		if err != nil {
			r.fail("edited layout %d invalid: %v", i, err)
		}
	}
	if record {
		setGoMetrics(r, m0, len(committed))
		setLatency(r, "eco.commit_ms", out.commitMS, 95)
		setLatency(r, "eco.repair_ms", repair, 90)
		setLatency(r, "eco.nonrepair_ms", nonrepair, 0)
		setLatency(r, "eco.netonly_ms", netMS, 0)
		setLatency(r, "eco.move_ms", moveMS, 0)
		setLatency(r, "layout.validate_edit_ms", validate, 0)
		r.set("eco.dirty_nets", mean(dirty), "count")
		r.set("eco.rerouted_nets", mean(rerouted), "count")
		if len(netMS) > 0 {
			r.set("eco.validate_share_netonly", median(validate)/median(netMS), "ratio")
		}
		r.set("plane.edit_ms", median(planeEdit), "ms")
		r.set("congest.extract_edit_ms", median(extractEdit), "ms")

		passages, err := extractPassages(eng.Layout(), servePitch)
		if err != nil {
			return nil, err
		}
		id := tr.begin("congest.build_map", -1)
		buildMap(passages, eng.Result())
		tr.end(id)
		r.set("congest.build_map_ms", median(durations(tr.closed(), "congest.build_map")), "ms")
		setLatency(r, "router.net_ms", readNets(ctx, &env{}, r, eng, rand.New(rand.NewSource(e.seed)), readSamples), 95)
	}
	if st, ok := eng.JournalStats(); ok && st.Records > 0 {
		out.jrnlBPC = float64(st.Bytes) / float64(st.Records)
	}

	cur := eng.Result()
	w := wiresJSON{Hash: hash, Routed: eng.Routed(), Overflow: eng.Overflow(), Wires: []netWire{}}
	if cur != nil {
		w.TotalLength = int64(cur.TotalLength)
		for _, nr := range cur.Nets {
			segs := make([][4]int64, len(nr.Segments))
			for k, s := range nr.Segments {
				segs[k] = [4]int64{s.A.X, s.A.Y, s.B.X, s.B.Y}
			}
			w.Wires = append(w.Wires, netWire{Net: nr.Net, Found: nr.Found, Length: int64(nr.Length), Segments: segs})
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	out.wires = buf.Bytes()
	if err := eng.CloseJournal(); err != nil {
		return nil, err
	}
	out.heapMiB = retainedMiB(&eng)
	return out, nil
}

// stage applies one /eco op to a transaction, as groutd's handler does.
func stage(tx *genroute.Edit, op *ecoOp) error {
	switch op.Op {
	case "add_net":
		var n genroute.Net
		if err := json.Unmarshal(op.Net, &n); err != nil {
			return err
		}
		return tx.AddNet(n)
	case "remove_net":
		return tx.RemoveNet(op.Name)
	case "move_cell":
		return tx.MoveCell(op.Name, op.DX, op.DY)
	}
	return fmt.Errorf("unknown op %q", op.Op)
}

// moveStages times, from outside the engine, the two incremental calls a
// cell move makes on prev: the obstacle index splice (plane.Index.Edit)
// and the passage re-extraction around it (congest.ExtractEdit). It returns
// their durations in milliseconds.
func moveStages(tr *tracer, prev *genroute.Layout, op *ecoOp) (float64, float64, error) {
	ix, spans, err := plane.FromLayoutSpans(prev)
	if err != nil {
		return 0, 0, err
	}
	passages, err := congest.Extract(ix, servePitch)
	if err != nil {
		return 0, 0, err
	}
	ci := -1
	for i := range prev.Cells {
		if prev.Cells[i].Name == op.Name {
			ci = i
		}
	}
	if ci < 0 {
		return 0, 0, fmt.Errorf("no cell %q", op.Name)
	}
	var removed []int
	var removedRects []geom.Rect
	for id := spans[ci][0]; id < spans[ci][1]; id++ {
		removed = append(removed, id)
		removedRects = append(removedRects, ix.Cell(id))
	}
	c := prev.Cells[ci]
	c.Box = c.Box.Translate(geom.Pt(op.DX, op.DY))
	c.Poly = nil // macro cells are plain rectangles
	added := c.ObstacleRects()

	id := tr.begin("plane.edit", -1)
	t := time.Now()
	ix2, remap, err := ix.Edit(removed, added)
	pe := sinceMS(t)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	addedIDs := make([]int, len(added))
	for k := range addedIDs {
		addedIDs[k] = ix2.NumCells() - len(added) + k
	}
	id = tr.begin("congest.extract_edit", -1)
	t = time.Now()
	_, err = congest.ExtractEdit(ix2, servePitch, passages, remap, removedRects, addedIDs)
	xe := sinceMS(t)
	tr.end(id)
	return pe, xe, err
}
