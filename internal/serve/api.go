// Package serve implements groutd's HTTP/JSON routing service over pooled
// genroute.Engine sessions: a bounded LRU of prepared sessions keyed by
// layout fingerprint with single-flight preparation and warm starts from
// each session's ECO journal, per-request deadlines mapped onto the
// engine's cooperative cancellation, admission control that sheds load
// instead of queueing unboundedly, per-request panic recovery, and
// graceful drain that checkpoints long-running negotiations and flushes
// every journal.
//
// See DESIGN.md "Serving & failure model" for the full semantics.
package serve

import (
	"encoding/json"

	"repro/internal/geom"
	"repro/internal/router"
)

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
	// Degraded marks a response produced after a recovered failure (a
	// per-request panic); the session itself stays healthy.
	Degraded bool `json:"degraded,omitempty"`
}

// sessionResponse answers POST /v1/sessions and one element of
// GET /v1/sessions.
type sessionResponse struct {
	// Hash is the layout fingerprint in %016x form; it is the session's
	// URL identity (/v1/sessions/{hash}/...).
	Hash  string `json:"hash"`
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	Nets  int    `json:"nets"`
	// Pitch is the session's congestion pitch: the ?pitch= of a cold
	// build, or the pitch the journal recorded for a warm start.
	Pitch int64 `json:"pitch"`
	// Created is false when the layout was already resident (the request
	// joined an existing session instead of preparing one).
	Created bool `json:"created"`
	// Warm reports that the session was recovered from its on-disk journal
	// rather than cold-prepared.
	Warm      bool    `json:"warm"`
	Routed    bool    `json:"routed"`
	Overflow  int     `json:"overflow"`
	PrepareMS float64 `json:"prepare_ms"`
	// Journaled reports an attached ECO write-ahead journal (every session
	// has one while persistence is enabled). The counters describe its
	// durability state: JournalRecords is the edit records since the last
	// fold, JournalBytes the journal's size (base plus records), and
	// JournalFsyncErr the most recent append/fsync failure ("" while
	// healthy).
	Journaled       bool   `json:"journaled,omitempty"`
	JournalRecords  int    `json:"journal_records,omitempty"`
	JournalBytes    int64  `json:"journal_bytes,omitempty"`
	JournalFsyncErr string `json:"journal_fsync_err,omitempty"`
}

// wiresResponse answers GET /v1/sessions/{hash}/wires: the installed
// per-net wiring of the session — the service-boundary ground truth a
// crash-recovery check compares byte-for-byte across a restart.
type wiresResponse struct {
	Hash        string         `json:"hash"`
	Routed      bool           `json:"routed"`
	Overflow    int            `json:"overflow"`
	TotalLength int64          `json:"total_length"`
	Wires       []netWiresJSON `json:"wires"`
}

type routeRequest struct {
	Net string `json:"net"`
	// DeadlineMS bounds the request; 0 applies the server's maximum. An
	// expired route returns the partial tree with "partial": true.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// segJSON is one axis-parallel wire segment, [ax, ay, bx, by].
type segJSON [4]int64

func segsJSON(segs []geom.Seg) []segJSON {
	out := make([]segJSON, len(segs))
	for i, s := range segs {
		out[i] = segJSON{s.A.X, s.A.Y, s.B.X, s.B.Y}
	}
	return out
}

type routeResponse struct {
	Net       string    `json:"net"`
	Found     bool      `json:"found"`
	Length    int64     `json:"length"`
	Segments  []segJSON `json:"segments"`
	Partial   bool      `json:"partial"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

type negotiateRequest struct {
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Wires asks for the per-net wiring of the installed state in the
	// response — the service-boundary ground truth for equivalence checks.
	Wires bool `json:"wires,omitempty"`
}

type passJSON struct {
	Overflow    int     `json:"overflow"`
	Overflowed  int     `json:"overflowed"`
	Routed      int     `json:"routed"`
	Rerouted    int     `json:"rerouted"`
	TotalLength int64   `json:"total_length"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

type netWiresJSON struct {
	Net      string    `json:"net"`
	Found    bool      `json:"found"`
	Length   int64     `json:"length"`
	Segments []segJSON `json:"segments"`
}

type negotiateResponse struct {
	Passes    []passJSON `json:"passes"`
	Converged bool       `json:"converged"`
	Stalled   bool       `json:"stalled,omitempty"`
	// Partial marks a run cut short by the request deadline or a drain:
	// the session keeps the best pass seen (minimum overflow, most nets
	// routed), and with persistence on its last checkpoint, folded into
	// the session's journal, is the resume point.
	Partial bool `json:"partial"`
	// Resumed reports that the run continued the negotiation an earlier
	// interrupted request on this session (or on the journal a restart
	// recovered it from) left in flight; Passes then lists the continued
	// passes only.
	Resumed  bool `json:"resumed"`
	Overflow int  `json:"overflow"`
	// Degraded names nets whose reroute panicked and was isolated (they
	// keep their previous route); empty in healthy runs.
	Degraded  []string       `json:"degraded,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Wires     []netWiresJSON `json:"wires,omitempty"`
}

func wiresJSON(nets []router.NetRoute) []netWiresJSON {
	out := make([]netWiresJSON, len(nets))
	for i := range nets {
		out[i] = netWiresJSON{
			Net:      nets[i].Net,
			Found:    nets[i].Found,
			Length:   int64(nets[i].Length),
			Segments: segsJSON(nets[i].Segments),
		}
	}
	return out
}

type ecoRequest struct {
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
	Ops        []ecoOp `json:"ops"`
}

// ecoOp is one staged edit: {"op": "add_net", "net": {...}} with a
// layout-JSON net, {"op": "remove_net", "name": "clk2"}, or
// {"op": "move_cell", "name": "ram0", "dx": 40, "dy": 0}.
type ecoOp struct {
	Op   string          `json:"op"`
	Net  json.RawMessage `json:"net,omitempty"`
	Name string          `json:"name,omitempty"`
	DX   int64           `json:"dx,omitempty"`
	DY   int64           `json:"dy,omitempty"`
}

type ecoResponse struct {
	Dirty     []string `json:"dirty"`
	Converged bool     `json:"converged"`
	Overflow  int      `json:"overflow"`
	Partial   bool     `json:"partial"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

type readyzResponse struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
}
