package congest

import (
	"context"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/plane"
	"repro/internal/router"
)

// Checkpoint is the restartable state of a negotiation run, captured by the
// Config.Checkpoint hook. It is self-contained: NegotiateResume rebuilds the
// live congestion map from Nets (checkpoints are only taken between rip-ups,
// where the map and the routing state agree exactly), so the resumed run
// replays the remaining work byte-identically to an uninterrupted one.
type Checkpoint struct {
	// PassesRecorded counts the passes already recorded (and reported
	// through OnPass) when the checkpoint was taken; it offsets the resumed
	// run's MaxPasses accounting.
	PassesRecorded int
	// ReroutePass is the weight-schedule ordinal: the number of reroute
	// passes started so far. A mid-pass checkpoint stores the
	// post-increment value, so resume re-derives the in-progress pass's
	// present weight without re-running the pass prologue.
	ReroutePass int
	// History is the accumulated per-passage overflow history, including
	// the in-progress pass's pass-start accrual (history accrues in the
	// pass prologue, which never re-runs on resume).
	History []int
	// Nets is the complete per-net routing state at the checkpoint:
	// committed passes plus the in-progress pass's reroutes so far, in
	// layout net order.
	Nets []router.NetRoute
	// Pass is the in-progress pass's rip state of a mid-pass checkpoint,
	// nil at a pass boundary.
	Pass *PassState
}

// Validate checks a checkpoint against a session of nets nets and passages
// passages; it fails closed on any structural mismatch. It is the one
// statement of the checks: the payload decoder, the journal loader and
// NegotiateResume all make them.
func (cp *Checkpoint) Validate(nets, passages int) error {
	if len(cp.Nets) != nets {
		return fmt.Errorf("congest: checkpoint has %d nets, session %d", len(cp.Nets), nets)
	}
	if len(cp.History) != passages {
		return fmt.Errorf("congest: checkpoint has %d history entries, session %d passages", len(cp.History), passages)
	}
	if cp.PassesRecorded < 0 || cp.ReroutePass < 0 {
		return fmt.Errorf("congest: checkpoint has negative pass counters")
	}
	ps := cp.Pass
	if ps == nil {
		return nil
	}
	if cp.ReroutePass < 1 {
		return fmt.Errorf("congest: mid-pass checkpoint without a started reroute pass")
	}
	if len(ps.Ripped) != nets {
		return fmt.Errorf("congest: checkpoint has %d rip flags, session %d nets", len(ps.Ripped), nets)
	}
	for _, ni := range ps.Initial {
		if ni < 0 || ni >= nets {
			return fmt.Errorf("congest: checkpoint rip index %d out of range [0,%d)", ni, nets)
		}
	}
	if ps.InitialPos < 0 || ps.InitialPos > len(ps.Initial) {
		return fmt.Errorf("congest: checkpoint rip position %d out of range [0,%d]", ps.InitialPos, len(ps.Initial))
	}
	return nil
}

// clone deep-copies the checkpoint so the hook may retain it after the
// negotiator moves on.
func (cp *Checkpoint) clone() *Checkpoint {
	c := *cp
	c.History = append([]int(nil), cp.History...)
	c.Nets = append([]router.NetRoute(nil), cp.Nets...)
	if cp.Pass != nil {
		c.Pass = cp.Pass.clone()
	}
	return &c
}

// clone deep-copies the rip state.
func (ps *PassState) clone() *PassState {
	c := *ps
	c.Ripped = append([]bool(nil), ps.Ripped...)
	c.Initial = append([]int(nil), ps.Initial...)
	c.Rerouted = append([]string(nil), ps.Rerouted...)
	return &c
}

// checkpoint fires the checkpoint hook. With st nil the blob is the
// pass-boundary state (between recorded passes); otherwise it is the
// in-progress pass's state. Checkpoints are only taken between rip-ups, so
// st.next and the live map agree exactly — which is what lets resume
// rebuild the map from the blob's routes. A hook write failure aborts the
// run: a caller asking for crash safety must not silently lose it.
func (ng *negotiator) checkpoint(st *passRun) error {
	if ng.cfg.Checkpoint == nil {
		return nil
	}
	cp := Checkpoint{
		PassesRecorded: ng.passOffset + len(ng.res.Passes),
		ReroutePass:    ng.reroutePass,
		History:        ng.res.History,
		Nets:           ng.cur.Nets,
	}
	if st != nil {
		cp.Nets, cp.Pass = st.next.Nets, &st.PassState
	}
	if err := ng.cfg.Checkpoint(cp.clone()); err != nil {
		return fmt.Errorf("congest: checkpoint hook: %w", err)
	}
	return nil
}

// NegotiateResume continues a checkpointed negotiation run over the same
// prepared session (identical layout, index, passage set and Config — the
// caller is responsible for that identity; the public Engine pins it with a
// layout hash). The live map is rebuilt from the checkpoint's routes, a
// mid-pass blob finishes its interrupted pass from the exact rip it stopped
// at, and the loop then continues under the original MaxPasses budget
// (PassesRecorded passes are already spent). The returned result covers the
// resumed portion only: its Passes are the passes recorded after the
// checkpoint, and History/Converged/Stalled describe the completed run.
//
// The run this produces is byte-identical to the uninterrupted one: the
// negotiator is deterministic given (layout, index, passages, config,
// state), and the checkpoint captures the complete state between rips.
func NegotiateResume(ctx context.Context, l *layout.Layout, ix *plane.Index, passages []Passage, cfg Config, cp *Checkpoint) (*NegotiateResult, error) {
	if err := cp.Validate(len(l.Nets), len(passages)); err != nil {
		return nil, err
	}
	cp = cp.clone() // the negotiator takes the state over; keep the caller's blob intact
	cur := &router.LayoutResult{Nets: cp.Nets}
	cur.Finalize(time.Now())
	ng := newNegotiator(l, ix, cfg, BuildMap(passages, cur.NetSegments()), cp.History)
	ng.passOffset = cp.PassesRecorded
	ng.res.PassesBefore = cp.PassesRecorded
	ng.reroutePass = cp.ReroutePass
	ng.cur = cur

	var st *passRun
	if cp.Pass != nil {
		// Finish the interrupted pass: restore its rip state and present
		// weight (beginPass — history accrual, weight escalation,
		// reroutePass increment — already ran before the checkpoint).
		ng.presWeight = cfg.Weight + cfg.WeightStep*geom.Coord(cp.ReroutePass-1)
		st = &passRun{
			PassState: *cp.Pass,
			next:      &router.LayoutResult{Nets: append([]router.NetRoute(nil), cp.Nets...)},
		}
	}
	res, err := ng.run(ctx, st)
	if res != nil && len(res.Results) == 0 {
		// The checkpointed state was already final (converged, stalled or
		// out of budget at the boundary): record the carried state as the
		// single pass so Final() stays well-defined.
		ng.record(nil)
	}
	return res, err
}
