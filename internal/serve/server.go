package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Config parameterizes a Server. The zero value of every field picks a
// production-safe default (see withDefaults).
type Config struct {
	// SnapshotDir, when set, enables persistence: every session keeps
	// its one durable file, the journal <dir>/<hash>.jrnl, written when
	// the session is built, folded at every negotiation checkpoint and
	// replayed when its layout is re-posted. Empty disables all
	// persistence.
	SnapshotDir string
	// MaxSessions bounds the resident session LRU (default 8).
	MaxSessions int
	// MaxConcurrent bounds requests doing routing work at once (default
	// GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a work slot; beyond it the
	// daemon sheds load with 429 (default 4×MaxConcurrent).
	MaxQueue int
	// MaxDeadline caps (and defaults) the per-request deadline (default
	// 2m).
	MaxDeadline time.Duration
	// DrainTimeout bounds the graceful drain: in-flight requests get this
	// long to finish before their work contexts are cancelled — which
	// checkpoints interrupted negotiations and returns well-formed
	// partials (default 30s).
	DrainTimeout time.Duration
	// ReadyzGrace is how long /readyz reports draining before the
	// listener stops accepting, so load balancers observe the flip while
	// the daemon still serves (default 500ms).
	ReadyzGrace time.Duration
	// CheckpointEvery is the mid-pass checkpoint cadence in rip-ups
	// (default 64).
	CheckpointEvery int
	// Workers is the per-session routing worker count (0 = GOMAXPROCS).
	Workers int
	// Logf receives operational log lines (default log.Printf).
	Logf func(string, ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ReadyzGrace <= 0 {
		c.ReadyzGrace = 500 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the groutd service: session cache, admission queue and drain
// lifecycle. Build one with New, mount Handler, and run it under Serve.
type Server struct {
	cfg      Config
	logf     func(string, ...any)
	sessions *sessionCache
	q        *queue

	// ready gates /readyz and fast-path admission; flipped off at drain
	// start.
	ready atomic.Bool
	// drainMu serializes admission against the drain flip, so every
	// inflight.Add happens-before the drain's Wait (never concurrently
	// with it) and no request slips in after draining is set.
	drainMu  sync.Mutex
	draining bool
	// workCtx parents every request context (via the http.Server's
	// BaseContext); cancelling it at the drain deadline cooperatively
	// stops in-flight engine work.
	workCtx    context.Context
	workCancel context.CancelFunc
	// inflight tracks admitted requests through the drain.
	inflight sync.WaitGroup

	// hold, when set by a test, runs after admission before the handler —
	// the deterministic way to keep slots occupied.
	hold func(op string)
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, logf: cfg.Logf, q: newQueue(cfg.MaxConcurrent, cfg.MaxQueue)}
	s.sessions = newSessionCache(cfg.MaxSessions, cfg.SnapshotDir, cfg.CheckpointEvery,
		[]genroute.Option{genroute.WithWorkers(cfg.Workers)}, s.logf)
	s.workCtx, s.workCancel = context.WithCancel(context.Background())
	s.ready.Store(true)
	return s
}

// Handler returns the daemon's routed handler (with panic recovery).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{hash}/wires", s.handleWires)
	mux.HandleFunc("POST /v1/sessions", s.admit("prepare", s.handleCreateSession))
	mux.HandleFunc("POST /v1/sessions/{hash}/route", s.admit("route", s.handleRoute))
	mux.HandleFunc("POST /v1/sessions/{hash}/negotiate", s.admit("negotiate", s.handleNegotiate))
	mux.HandleFunc("POST /v1/sessions/{hash}/eco", s.admit("eco", s.handleECO))
	return s.recoverPanics(mux)
}

// Serve runs the daemon on ln until ctx is cancelled (the SIGTERM signal
// context), then drains gracefully: readiness flips immediately, the
// listener keeps serving through ReadyzGrace (so load balancers observe
// the flip), stops accepting, and in-flight requests run to completion
// under DrainTimeout — past it their work contexts are cancelled, which
// checkpoints interrupted negotiations and returns well-formed partials.
// Finally every resident session's journal is flushed and closed; a
// restart replays them warm.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return s.workCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.logf("serve: shutdown requested; draining (grace %s, deadline %s)", s.cfg.ReadyzGrace, s.cfg.DrainTimeout)
	s.startDrain()
	time.Sleep(s.cfg.ReadyzGrace)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		s.logf("serve: drain deadline exceeded; cancelling in-flight work (interrupted negotiations checkpoint)")
		s.workCancel()
		hs.Shutdown(context.Background())
	}
	s.inflight.Wait()
	s.sessions.retireAll()
	s.logf("serve: drained; %d session journal(s) closed", len(s.sessions.snapshotList()))
	return nil
}

// ListenAndServe listens on addr and runs Serve; the bound address is
// logged (useful with ":0").
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("groutd listening on %s", ln.Addr())
	return s.Serve(ctx, ln)
}

// startDrain flips readiness off: /readyz answers 503 and new routing
// requests are refused, while admitted requests keep running. After it
// returns, no further request can join the in-flight set.
func (s *Server) startDrain() {
	s.ready.Store(false)
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

// admit is the middleware in front of every routing endpoint: refuse when
// draining, shed load when saturated, and track the request through the
// drain.
func (s *Server) admit(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.drainMu.Lock()
		if s.draining {
			s.drainMu.Unlock()
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
			return
		}
		s.inflight.Add(1)
		s.drainMu.Unlock()
		defer s.inflight.Done()
		if err := s.q.acquire(r.Context()); err != nil {
			if errors.Is(err, errSaturated) {
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "work queue saturated"})
				return
			}
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		}
		defer s.q.release()
		if hold := s.hold; hold != nil {
			hold(op)
		}
		h(w, r)
	}
}

// recoverPanics converts a handler panic into a 500 with a degraded-marked
// body. The session an engine panic escaped from stays resident and
// healthy — the failure is isolated to the request.
//
//grlint:recoverguard the per-request panic isolation boundary; ErrAbortHandler is re-panicked
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			writeJSON(w, http.StatusInternalServerError, errorResponse{
				Error:    fmt.Sprintf("internal panic: %v", v),
				Degraded: true,
			})
		}()
		next.ServeHTTP(w, r)
	})
}

// reqContext derives the request's work context: the per-request deadline
// (capped by MaxDeadline) over r.Context(), which the drain cancels.
func (s *Server) reqContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.MaxDeadline
	if deadlineMS > 0 {
		if rd := time.Duration(deadlineMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(r.Context(), d)
}
