// Command groutd serves routing as a service: an HTTP/JSON daemon pooling
// prepared genroute.Engine sessions behind a bounded LRU, with warm starts
// from each session's ECO journal, per-request deadlines, load shedding and
// graceful drain.
//
// Usage:
//
//	groutd -addr :7474 -snapshots /var/lib/groutd
//
// API (see DESIGN.md "Serving & failure model"):
//
//	POST /v1/sessions?pitch=8         body: layout JSON → session (hash = layout fingerprint)
//	POST /v1/sessions/{hash}/route      {"net": "n1", "deadline_ms": 500}
//	POST /v1/sessions/{hash}/negotiate  {"deadline_ms": 60000, "wires": true}
//	POST /v1/sessions/{hash}/eco        {"ops": [{"op": "move_cell", "name": "c3", "dx": 40}]}
//	GET  /v1/sessions                   resident sessions
//	GET  /healthz                       liveness (always 200 while the process runs)
//	GET  /readyz                        readiness (503 while draining)
//
// With -snapshots, each session keeps one durable file there, its journal
// <hash>.jrnl: written when the session is built, appended and fsynced
// before every ECO commit is acknowledged, folded at every negotiation
// checkpoint (-checkpointevery) and after every negotiation. Re-posting a
// layout, after an eviction or a restart (even kill -9), replays its
// journal, and the next /negotiate continues a negotiation it left in
// flight; an unusable journal is quarantined and the session is built
// cold. An /eco or /negotiate whose deadline passes while another writer
// holds its session, or that reached a session evicted under it, changes
// nothing and answers 503 with Retry-After.
//
// SIGTERM/SIGINT drain gracefully: readiness flips, in-flight requests
// finish under -drain (past it they are cancelled cooperatively and
// running negotiations fold a final checkpoint into their journals), and
// every resident session's journal is flushed and closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":7474", "listen address")
		snapshots = flag.String("snapshots", "", "persistence directory for session journals, negotiation checkpoints included (empty disables persistence)")
		sessions  = flag.Int("max-sessions", 8, "resident session LRU bound")
		conc      = flag.Int("max-concurrent", 0, "concurrent routing requests (0 = GOMAXPROCS)")
		queue     = flag.Int("max-queue", 0, "queued requests before load shedding (0 = 4x max-concurrent)")
		deadline  = flag.Duration("max-deadline", 2*time.Minute, "per-request deadline cap and default")
		drain     = flag.Duration("drain", 30*time.Second, "graceful drain deadline on SIGTERM")
		grace     = flag.Duration("readyz-grace", 500*time.Millisecond, "window between readiness flip and listener stop")
		ckptEvery = flag.Int("checkpointevery", 64, "mid-pass checkpoint cadence in rip-ups (with -snapshots)")
		workers   = flag.Int("workers", 0, "per-session routing workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *snapshots != "" {
		if err := os.MkdirAll(*snapshots, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "groutd:", err)
			os.Exit(2)
		}
	}
	srv := serve.New(serve.Config{
		SnapshotDir:     *snapshots,
		MaxSessions:     *sessions,
		MaxConcurrent:   *conc,
		MaxQueue:        *queue,
		MaxDeadline:     *deadline,
		DrainTimeout:    *drain,
		ReadyzGrace:     *grace,
		CheckpointEvery: *ckptEvery,
		Workers:         *workers,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "groutd:", err)
		os.Exit(1)
	}
}
