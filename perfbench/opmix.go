package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	genroute "repro"
)

const (
	ecoNets   = 5 // nets ripped and re-added per /eco request
	moveEvery = 4 // every moveEvery-th request also moves a cell
	// moveCells bounds the distinct cells the writer moves, each out and
	// back once. A run makes a few dozen moves; giving each pair its own
	// cell averages the move cost over many columns instead of a few.
	moveCells = 64
	moveStep  = 2 // move distance; the 12-unit gaps keep the move legal
)

// ecoOp is one staged edit in groutd's /eco request format.
type ecoOp struct {
	Op   string          `json:"op"`
	Net  json.RawMessage `json:"net,omitempty"`
	Name string          `json:"name,omitempty"`
	DX   int64           `json:"dx,omitempty"`
	DY   int64           `json:"dy,omitempty"`
}

// opMix is the seeded request mix of serve-eco-mix32. The writer rips nets
// and re-adds them under fresh names; every moveEvery-th request instead
// moves a cell by moveStep, and the next move request moves that cell back.
// Moved cells carry no cross-chip net, so every move dirties the same kinds
// of net: four buses and its column's control net. The reader routes nets
// the writer never renames: nets touching a moved cell and half of the
// neighbor buses go to the reader, the other buses to the writer, so every
// read names a net that exists.
type opMix struct {
	writer []string // original names of the nets the writer edits
	reader []string // nets the writer never edits
	moves  []string // cells the writer moves
	nets   map[string]genroute.Net

	rng  *rand.Rand
	cur  map[string]string // original name -> current name
	next int               // position in writer (rotating)
	reqs int               // /eco requests generated
	mvs  int               // move ops generated
}

func newOpMix(l *genroute.Layout, seed int64) (*opMix, error) {
	rng := rand.New(rand.NewSource(seed))
	m := &opMix{rng: rng, cur: map[string]string{}, nets: map[string]genroute.Net{}}
	crossChip := map[int]bool{}
	for _, n := range l.Nets {
		if strings.HasPrefix(n.Name, "x") {
			for _, t := range n.Terminals {
				for _, p := range t.Pins {
					crossChip[int(p.Cell)] = true
				}
			}
		}
	}
	moved := map[int]bool{}
	for _, ci := range rng.Perm(len(l.Cells)) {
		if len(m.moves) < moveCells && !crossChip[ci] {
			moved[ci] = true
			m.moves = append(m.moves, l.Cells[ci].Name)
		}
	}
	var buses []string
	for _, n := range l.Nets {
		m.nets[n.Name] = n
		bus := strings.HasPrefix(n.Name, "hb") || strings.HasPrefix(n.Name, "vb")
		if bus && !touches(n, moved) {
			buses = append(buses, n.Name)
		} else {
			m.reader = append(m.reader, n.Name)
		}
	}
	rng.Shuffle(len(buses), func(i, j int) { buses[i], buses[j] = buses[j], buses[i] })
	half := len(buses) / 2
	m.writer = buses[:half]
	m.reader = append(m.reader, buses[half:]...)
	sort.Strings(m.reader)
	for _, n := range m.writer {
		m.cur[n] = n
	}
	if len(m.writer) < ecoNets || len(m.moves) == 0 {
		return nil, fmt.Errorf("layout too small for the op mix: %d writer nets, %d movable cells", len(m.writer), len(m.moves))
	}
	return m, nil
}

func touches(n genroute.Net, cells map[int]bool) bool {
	for _, t := range n.Terminals {
		for _, p := range t.Pins {
			if cells[int(p.Cell)] {
				return true
			}
		}
	}
	return false
}

// nextECO returns the ops of the next /eco request: every moveEvery-th
// request is a single cell move, every other one rips and re-adds ecoNets
// nets. Moves are requests of their own because their cost depends on
// whether the 2-unit shift pushes a passage over capacity, which varies
// from seed to seed far more than a net edit does; kept apart, the net-edit
// latency stays a steady end-to-end figure.
func (m *opMix) nextECO() ([]ecoOp, error) {
	i := m.reqs
	m.reqs++
	if i%moveEvery == moveEvery-1 {
		// Moves come in pairs: out by moveStep, then back. Alternate pairs
		// move along x and y.
		pair := m.mvs / 2
		d := int64(moveStep)
		if m.mvs%2 == 1 {
			d = -d
		}
		op := ecoOp{Op: "move_cell", Name: m.moves[pair%len(m.moves)]}
		if pair%2 == 0 {
			op.DX = d
		} else {
			op.DY = d
		}
		m.mvs++
		return []ecoOp{op}, nil
	}
	var ops []ecoOp
	for k := 0; k < ecoNets; k++ {
		orig := m.writer[m.next%len(m.writer)]
		m.next++
		n := m.nets[orig]
		n.Name = fmt.Sprintf("%s~%d", orig, i)
		b, err := json.Marshal(n)
		if err != nil {
			return nil, err
		}
		ops = append(ops,
			ecoOp{Op: "remove_net", Name: m.cur[orig]},
			ecoOp{Op: "add_net", Net: b})
		m.cur[orig] = n.Name
	}
	return ops, nil
}

// isMove reports whether a request is a cell move.
func isMove(ops []ecoOp) bool { return len(ops) == 1 && ops[0].Op == "move_cell" }

// nextRead returns the next net the reader routes.
func (m *opMix) nextRead() string { return m.reader[m.rng.Intn(len(m.reader))] }
