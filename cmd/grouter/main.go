// Command grouter globally routes a general-cell layout through the
// prepared-session Engine API.
//
// Usage:
//
//	grouter -input chip.json                  # route and report
//	grouter -input chip.json -corner -workers 8
//	grouter -input chip.json -congestion -pitch 4 -weight 100
//	grouter -input chip.json -congestion -passes 2 -history 0   # the paper's plain two-pass flow
//	grouter -input chip.json -congestion -timeout 30s           # budgeted: partial report on expiry
//	grouter -input chip.json -congestion -checkpoint run.jrnl   # crash-safe: checkpoint into a journal
//	grouter -input chip.json -congestion -checkpoint run.jrnl -resume   # continue an interrupted run
//	grouter -input chip.json -tracks          # include detailed tracks
//	grouter -input chip.json -wires           # dump the routed wires
//
// -checkpoint names the session's journal: it is written when the session
// is prepared, and the negotiation checkpoints into it as it goes. SIGINT
// and SIGTERM cancel the run cooperatively: the router finishes the rip in
// flight, folds a final checkpoint into the journal (with -checkpoint),
// prints the partial per-pass report and exits 1. Rerunning with -resume
// recovers the session from the journal and continues the negotiation,
// producing routes byte-identical to an uninterrupted run; a run stopped
// inside pass 1 has taken no checkpoint yet, so its rerun starts afresh. A
// journal whose negotiation finished converged, every net routed at zero
// overflow, has nothing left to negotiate: -resume reports its routes as
// recovered and exits 0.
//
// Exit codes: 0 success, 1 failure or interruption, 2 usage, 3 the report
// contains DEGRADED (panic-poisoned) nets — pass -degraded-ok to treat
// degraded reports as success.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/viz"
)

func main() {
	var (
		input      = flag.String("input", "", "layout JSON file (required)")
		workers    = flag.Int("workers", 0, "routing workers (0 = GOMAXPROCS)")
		corner     = flag.Bool("corner", false, "enable the inverted-corner epsilon rule")
		congestion = flag.Bool("congestion", false, "run the negotiated congestion flow")
		pitch      = flag.Int64("pitch", 4, "wire pitch for congestion capacity")
		weight     = flag.Int64("weight", 100, "detour accepted per congested crossing")
		passes     = flag.Int("passes", 8, "max congestion passes (with -congestion)")
		history    = flag.Int("history", 1, "history gain per past overflow (0 = paper's plain penalty)")
		weightStep = flag.Int64("weightstep", 0, "present-cost escalation per pass (0 = flat weight)")
		historyW   = flag.Int64("historyweight", 0, "history step decoupled from -weight (0 = coupled)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget; on expiry the partial per-pass report is printed (0 = none)")
		checkpoint = flag.String("checkpoint", "", "session journal (with -congestion): written at preparation; the negotiation checkpoints into it at pass boundaries, mid-pass per -checkpointevery, and on interruption")
		ckptEvery  = flag.Int("checkpointevery", 64, "mid-pass checkpoint cadence in rip-ups (0 = pass boundaries only; with -checkpoint)")
		resume     = flag.Bool("resume", false, "recover the session from the -checkpoint journal and continue its -congestion run instead of starting fresh")
		tracks     = flag.Bool("tracks", false, "run detailed track assignment")
		wires      = flag.Bool("wires", false, "print the routed segments")
		draw       = flag.Bool("draw", false, "render the routed layout as ASCII art")
		degradedOK = flag.Bool("degraded-ok", false, "exit 0 even when the report contains DEGRADED (panic-poisoned) nets")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "grouter: -input is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*input)
	if err != nil {
		fatal(err)
	}
	l, err := genroute.ReadLayout(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	s := l.Summary()
	fmt.Printf("layout %q: %d cells, %d nets, %d pins, %.1f%% utilization\n",
		l.Name, s.Cells, s.Nets, s.Pins, s.Utilization)

	opts := []genroute.Option{
		genroute.WithWorkers(*workers),
		genroute.WithPitch(*pitch),
		genroute.WithPenaltyWeight(*weight),
		genroute.WithMaxPasses(*passes),
		genroute.WithHistory(*history, *historyW),
		genroute.WithWeightStep(*weightStep),
	}
	if *corner {
		opts = append(opts, genroute.WithCornerRule())
	}
	if *checkpoint != "" {
		opts = append(opts, genroute.WithJournalFile(*checkpoint), genroute.WithCheckpointEvery(*ckptEvery))
	}
	if *resume && (*checkpoint == "" || !*congestion) {
		fmt.Fprintln(os.Stderr, "grouter: -resume requires -congestion and -checkpoint")
		os.Exit(2)
	}
	prepStart := time.Now()
	var e *genroute.Engine
	how := "validate + obstacle index + passage extraction"
	if *resume {
		e, err = genroute.LoadEngineJournal(*checkpoint, l, opts...)
		how = "recovered from " + *checkpoint
	} else {
		e, err = genroute.NewEngine(l, opts...)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("session prepared in %v (%s)\n", time.Since(prepStart).Round(time.Millisecond), how)

	// SIGINT/SIGTERM cancel cooperatively: the run stops at the next poll
	// point, folds its final checkpoint into the journal (with -checkpoint)
	// and reports the partial state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *congestion {
		if *resume && e.Routed() && len(e.Result().Failed) == 0 && e.Overflow() == 0 && !e.NegotiationInFlight() {
			fmt.Printf("recovered converged routes from %s (every net routed, zero overflow): nothing to negotiate\n", *checkpoint)
			report(e, *tracks, *wires, *draw)
			return
		}
		res, err := e.RouteNegotiated(ctx)
		interrupted := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			fatal(err)
		}
		if res == nil {
			fatal(err)
		}
		if *resume {
			if res.PassesBefore > 0 {
				fmt.Printf("resumed the negotiation in %s after %d recorded passes\n", *checkpoint, res.PassesBefore)
			} else {
				fmt.Printf("no negotiation in flight in %s: negotiating afresh\n", *checkpoint)
			}
		}
		// Passes of a resumed run are numbered after the recorded ones, and
		// the verdict below describes the whole negotiation.
		passes := res.PassesBefore + len(res.Passes)
		for i, p := range res.Passes {
			fmt.Printf("pass %d: length=%d overflow=%d (over %d passages), rerouted %d nets, routed %d/%d, %d layout expansions, pass took %v\n",
				res.PassesBefore+i+1, p.TotalLength, p.Overflow, p.Overflowed,
				len(p.Rerouted), p.Routed, s.Nets, p.Stats.Expanded, p.Elapsed.Round(time.Microsecond))
		}
		if n := len(res.Panics); n > 0 {
			fmt.Printf("DEGRADED: %d nets poisoned by routing panics (kept unrouted; see first below)\n%v\n",
				n, res.Panics[0])
		}
		switch {
		case interrupted:
			what := fmt.Sprintf("TIMEOUT after %v", *timeout)
			if errors.Is(err, context.Canceled) {
				what = "INTERRUPTED"
			}
			fmt.Printf("%s: best state kept (%d passes recorded, session overflow %d)\n",
				what, passes, e.Overflow())
			if *checkpoint != "" {
				note := ""
				if passes == 1 {
					note = " (a run stopped inside pass 1 has none and starts afresh)"
				}
				fmt.Printf("session saved in the journal %s; rerun with -resume to continue from its last checkpoint%s\n", *checkpoint, note)
			}
			os.Exit(1)
		case res.Converged && passes == 1:
			fmt.Println("no congestion: single pass suffices")
		case res.Converged:
			fmt.Printf("converged: zero overflow after %d passes\n", passes)
		case res.Stalled:
			fmt.Printf("stalled after %d passes with overflow %d (raise -weight or -history)\n",
				passes, res.Map.TotalOverflow())
		default:
			fmt.Printf("pass budget exhausted after %d passes with overflow %d\n",
				passes, res.Map.TotalOverflow())
		}
		report(e, *tracks, *wires, *draw)
		if len(res.Panics) > 0 && !*degradedOK {
			os.Exit(3)
		}
		return
	}

	res, err := e.RouteAll(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		what := fmt.Sprintf("TIMEOUT after %v", *timeout)
		if errors.Is(err, context.Canceled) {
			what = "INTERRUPTED"
		}
		routed := len(res.Nets) - len(res.Failed)
		fmt.Printf("%s: %d/%d nets routed, partial length %d\n",
			what, routed, len(res.Nets), res.TotalLength)
		os.Exit(1)
	}
	if err != nil {
		fatal(err)
	}
	if n := len(res.Panics); n > 0 {
		fmt.Printf("DEGRADED: %d nets poisoned by routing panics (kept unrouted; see first below)\n%v\n",
			n, res.Panics[0])
	}
	report(e, *tracks, *wires, *draw)
	if len(res.Panics) > 0 && !*degradedOK {
		os.Exit(3)
	}
}

// report prints the session's routing summary, optional tracks and wires.
func report(e *genroute.Engine, tracks, wires, draw bool) {
	res := e.Result()
	fmt.Printf("routed %d nets in %v: total length %d, %d expansions\n",
		len(res.Nets), res.Elapsed.Round(1000), res.TotalLength, res.Stats.Expanded)
	if len(res.Failed) > 0 {
		fmt.Printf("FAILED nets: %v\n", res.Failed)
	}
	if err := e.CheckConnectivity(); err != nil {
		fmt.Printf("CONNECTIVITY ERROR: %v\n", err)
		os.Exit(1)
	}
	if tracks {
		tr, err := e.AssignTracks(0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("detailed: %d wires in %d channels, %d total tracks (max %d) in %v\n",
			tr.Wires, len(tr.Channels), tr.TotalTracks, tr.MaxTracks, tr.Elapsed.Round(1000))
	}
	if wires {
		for i := range res.Nets {
			nr := &res.Nets[i]
			fmt.Printf("net %s (length %d):\n", nr.Net, nr.Length)
			for _, seg := range nr.SortedSegments() {
				fmt.Printf("  %v\n", seg)
			}
		}
	}
	if draw {
		fmt.Print(viz.Layout(e.Layout(), res.NetSegments(), 0))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grouter:", err)
	os.Exit(1)
}
