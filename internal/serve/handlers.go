package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/layout"
	"repro/internal/snapshot"
)

// maxLayoutBytes bounds a POST /v1/sessions body (layout JSON).
const maxLayoutBytes = 1 << 30

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeBusy answers 503 with Retry-After to a request that changed nothing
// and whose retry may succeed: its wait for the session or its writer
// ended with the request, or the session it reached was evicted.
func writeBusy(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, format, args...)
}

// refused classifies the error of a writer that returned no result: the
// engine was retired (evicted), or the request's context ended while the
// writer waited for the engine's writer token. Either way it never ran.
func refused(err error) bool {
	return errors.Is(err, genroute.ErrRetired) || isInterrupted(err)
}

// presize bounds the buffer readBody allocates before reading, so a client
// that declares a large body and sends little cannot make the server
// allocate it.
const presize = 64 << 20

// readBody reads a request body of at most limit bytes into one buffer,
// sized from Content-Length when the client sent one. The MinRead spare
// bytes let the read that reports io.EOF land without a reallocation.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > presize {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeBody decodes a JSON request body into v; an empty body leaves v at
// its zero value (every request field has a default).
func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	n := len(s.sessions.snapshotList())
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Status: "draining", Sessions: n})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Status: "ready", Sessions: n})
}

// sessionJSON assembles the wire form of a resident session, including
// the ECO journal's durability counters when one is attached — the
// operator's view of how much unfolded replay a crash would cost and
// whether the last fsync succeeded.
func sessionJSON(sess *session) sessionResponse {
	l := sess.e.Layout()
	sr := sessionResponse{
		Hash:      sess.key(),
		Name:      l.Name,
		Cells:     len(l.Cells),
		Nets:      len(l.Nets),
		Pitch:     sess.e.Pitch(),
		Warm:      sess.warm,
		Routed:    sess.e.Routed(),
		Overflow:  sess.e.Overflow(),
		PrepareMS: float64(sess.prep) / float64(time.Millisecond),
	}
	if st, ok := sess.e.JournalStats(); ok {
		sr.Journaled = true
		sr.JournalRecords = st.Records
		sr.JournalBytes = st.Bytes
		sr.JournalFsyncErr = st.LastErr
	}
	return sr
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.sessions.snapshotList()
	out := make([]sessionResponse, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sessionJSON(sess))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCreateSession prepares (or joins, or warm-starts) a session for
// the posted layout JSON. Engine options come from query parameters:
// ?pitch=, ?weight=, ?passes= (absent parameters keep engine defaults; a
// warm start keeps the pitch its journal recorded). The session's identity
// is the layout fingerprint; posting the same layout twice returns the
// resident session without rebuilding, and concurrent posts of one layout
// share a single preparation. A session whose journal cannot be written
// answers 500: the failure is the server's, not the layout's. A create
// whose request ends while it waits — on a joined build, or on an evicted
// engine of the same layout letting go of its journal — answers 503.
//
// The body is decoded, not validated: a cold build's NewEngine validates
// the layout, and a warm start or a resident session is vouched for by its
// fingerprint, taken over a layout that passed NewEngine. An invalid layout
// therefore answers 400 from the cold build, before its journal is written.
func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxLayoutBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid layout: layout: decode: %v", err)
		return
	}
	l, err := layout.DecodeJSON(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid layout: %v", err)
		return
	}
	opts, err := optionsFromQuery(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	l.NormalizeBoxes()
	hash := snapshot.LayoutHash(l)
	sess, created, err := s.sessions.getOrCreate(r.Context().Done(), l, hash, opts)
	if errors.Is(err, errWaitCancelled) {
		writeBusy(w, "preparing session: %v", err)
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, genroute.ErrJournalAppend) {
			status = http.StatusInternalServerError
		}
		writeErr(w, status, "preparing session: %v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	sr := sessionJSON(sess)
	sr.Created = created
	writeJSON(w, status, sr)
}

// optionsFromQuery maps ?pitch/?weight/?passes to engine options.
func optionsFromQuery(r *http.Request) ([]genroute.Option, error) {
	var opts []genroute.Option
	q := r.URL.Query()
	if v := q.Get("pitch"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("bad pitch %q", v)
		}
		opts = append(opts, genroute.WithPitch(p))
	}
	if v := q.Get("weight"); v != "" {
		wt, err := strconv.ParseInt(v, 10, 64)
		if err != nil || wt < 0 {
			return nil, fmt.Errorf("bad weight %q", v)
		}
		opts = append(opts, genroute.WithPenaltyWeight(wt))
	}
	if v := q.Get("passes"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("bad passes %q", v)
		}
		opts = append(opts, genroute.WithMaxPasses(p))
	}
	return opts, nil
}

// lookupSession resolves the {hash} path element to a resident session
// (404 when evicted or never prepared — the client re-POSTs the layout,
// which warm-starts from the session's journal when one exists).
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session {
	hex := r.PathValue("hash")
	hash, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad session hash %q", hex)
		return nil
	}
	sess := s.sessions.lookup(hash)
	if sess == nil {
		writeErr(w, http.StatusNotFound, "no session %016x (re-POST the layout to /v1/sessions)", hash)
		return nil
	}
	return sess
}

// isInterrupted classifies a routing error as deadline/drain cancellation
// — the partial-result class, not a failure.
func isInterrupted(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// handleRoute routes one net against the session's prepared geometry
// (read-only: many route requests run concurrently on one session). An
// expired deadline returns the well-formed partial tree, marked partial.
func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	var req routeRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad route request: %v", err)
		return
	}
	if req.Net == "" {
		writeErr(w, http.StatusBadRequest, "route request names no net")
		return
	}
	ctx, cancel := s.reqContext(r, req.DeadlineMS)
	defer cancel()
	start := time.Now()
	nr, err := sess.e.RouteNet(ctx, req.Net)
	partial := false
	switch {
	case err == nil:
	case isInterrupted(err):
		partial = true
	case errors.Is(err, genroute.ErrUnknownNet):
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, routeResponse{
		Net:       req.Net,
		Found:     nr.Found,
		Length:    int64(nr.Length),
		Segments:  segsJSON(nr.Segments),
		Partial:   partial,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// handleNegotiate runs (or resumes) the negotiated-congestion flow on the
// session. With persistence on, the run checkpoints into the session's
// journal as it goes and the engine folds the installed routes into it; a
// negotiation an earlier request left in flight is resumed — producing
// routes byte-identical to the uninterrupted run — and a completed run
// retires it. An expired deadline or drain returns the best-pass partial
// with "partial": true, leaving the last checkpoint as the resume point. A
// deadline that expires while another writer holds the session, or a
// session evicted under the request, answers 503.
func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	var req negotiateRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad negotiate request: %v", err)
		return
	}
	ctx, cancel := s.reqContext(r, req.DeadlineMS)
	defer cancel()
	start := time.Now()
	res, err := sess.e.RouteNegotiated(ctx)
	if res == nil && refused(err) {
		writeBusy(w, "negotiation not started: %v", err)
		return
	}
	// A failed journal fold fails the request even on an interrupted run:
	// the installed routes would not survive a restart.
	partial := err != nil && isInterrupted(err) && !errors.Is(err, genroute.ErrJournalFold)
	if res == nil || (err != nil && !partial) {
		writeErr(w, http.StatusInternalServerError, "negotiation failed: %v", err)
		return
	}
	resp := negotiateResponse{
		Converged: res.Converged,
		Stalled:   res.Stalled,
		Partial:   partial,
		Resumed:   res.PassesBefore > 0,
		Overflow:  sess.e.Overflow(),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	for _, p := range res.Passes {
		resp.Passes = append(resp.Passes, passJSON{
			Overflow:    p.Overflow,
			Overflowed:  p.Overflowed,
			Routed:      p.Routed,
			Rerouted:    len(p.Rerouted),
			TotalLength: int64(p.TotalLength),
			ElapsedMS:   float64(p.Elapsed) / float64(time.Millisecond),
		})
	}
	for _, pe := range res.Panics {
		resp.Degraded = append(resp.Degraded, pe.Net)
	}
	if req.Wires {
		if cur := sess.e.Result(); cur != nil {
			resp.Wires = wiresJSON(cur.Nets)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleECO applies a staged edit transaction to the session and repairs
// the routing incrementally. With persistence enabled the session carries
// a write-ahead journal: Commit appends the edit set — fsynced — before
// installing, so by the time the 200 is written the edit survives kill -9
// and a restart replays it (the journal rung of the warm-start ladder).
// A failed commit is classified by its typed error: a commit that never
// ran (see refused) answers 503, a recovered commit panic 500 marked
// degraded, a journal append failure 500, and any other failure (a
// rejected edit) 400.
func (s *Server) handleECO(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	var req ecoRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad eco request: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, http.StatusBadRequest, "eco request stages no ops")
		return
	}
	tx := sess.e.Edit()
	for i, op := range req.Ops {
		var err error
		switch op.Op {
		case "add_net":
			var n genroute.Net
			if err = json.Unmarshal(op.Net, &n); err == nil {
				err = tx.AddNet(n)
			}
		case "remove_net":
			err = tx.RemoveNet(op.Name)
		case "move_cell":
			err = tx.MoveCell(op.Name, op.DX, op.DY)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "op %d: %v", i, err)
			return
		}
	}
	ctx, cancel := s.reqContext(r, req.DeadlineMS)
	defer cancel()
	eco, err := tx.Commit(ctx)
	partial := err != nil && isInterrupted(err) && eco != nil
	switch {
	case err == nil || partial:
	case eco == nil && refused(err):
		writeBusy(w, "eco commit not started: %v", err)
		return
	case errors.Is(err, genroute.ErrCommitPanic):
		writeJSON(w, http.StatusInternalServerError, errorResponse{
			Error: err.Error(), Degraded: true,
		})
		return
	case errors.Is(err, genroute.ErrJournalAppend):
		writeErr(w, http.StatusInternalServerError, "eco commit: %v", err)
		return
	default:
		writeErr(w, http.StatusBadRequest, "eco commit: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, ecoResponse{
		Dirty:     eco.Dirty,
		Converged: eco.Converged,
		Overflow:  sess.e.Overflow(),
		Partial:   partial,
		ElapsedMS: float64(eco.Elapsed) / float64(time.Millisecond),
	})
}

// handleWires reports the installed per-net wiring of a session. This is
// the service-boundary ground truth: the crash-recovery smoke check
// compares these bytes across a kill -9 and restart, and equality here is
// what "recovered" means to a client.
func (s *Server) handleWires(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	resp := wiresResponse{
		Hash:     sess.key(),
		Routed:   sess.e.Routed(),
		Overflow: sess.e.Overflow(),
		Wires:    []netWiresJSON{},
	}
	if res := sess.e.Result(); res != nil {
		resp.TotalLength = int64(res.TotalLength)
		resp.Wires = wiresJSON(res.Nets)
	}
	writeJSON(w, http.StatusOK, resp)
}
