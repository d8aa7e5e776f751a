package congest

import (
	"context"
	"errors"
	"testing"
)

// verdictConfig is the flat-price, history-free configuration of the stop
// verdict cases: with no history and no weight schedule an unchanged pass
// is a fixed point, so the loop's stall rule decides the outcome.
func verdictConfig() Config {
	return Config{Pitch: 2, Weight: 1, MaxPasses: 10, Workers: 1}
}

// TestLoopStopVerdicts pins how each opening of the pass loop stops: a
// repair that leaves overflow after an unchanged pass is stalled, a repair
// that leaves none is converged, and a repair cancelled before it starts
// records nothing.
func TestLoopStopVerdicts(t *testing.T) {
	t.Run("RepairStallsWithOverflowLeft", func(t *testing.T) {
		// Six nets overflow the capacity-3 slit, and a weight of 1 never
		// justifies the detour around the wall.
		l, ix, passages, m, lr := repairScene(t, 6, 2)
		res, err := RepairCtx(context.Background(), l, ix, passages, m, lr, []int{0}, verdictConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Passes) != 1 || !res.Stalled || res.Converged {
			t.Fatalf("repair = %d passes, stalled %v, converged %v; want 1 pass, stalled, not converged",
				len(res.Passes), res.Stalled, res.Converged)
		}
		checkMapMatchesRoutes(t, m, res.Final())
	})
	t.Run("RepairConvergesWithoutOverflow", func(t *testing.T) {
		l, ix, passages, m, lr := repairScene(t, 2, 2)
		res, err := RepairCtx(context.Background(), l, ix, passages, m, lr, []int{0}, verdictConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Passes) != 1 || res.Stalled || !res.Converged {
			t.Fatalf("repair = %d passes, stalled %v, converged %v; want 1 pass, converged, not stalled",
				len(res.Passes), res.Stalled, res.Converged)
		}
		checkMapMatchesRoutes(t, m, res.Final())
	})
	t.Run("RepairPreCancelledRecordsNothing", func(t *testing.T) {
		l, ix, passages, m, lr := repairScene(t, 6, 2)
		if m.TotalOverflow() == 0 {
			t.Fatal("scene should start overflowed")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := RepairCtx(ctx, l, ix, passages, m, lr, []int{0}, verdictConfig(), nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res == nil || len(res.Passes) != 0 {
			t.Fatalf("pre-cancelled repair recorded %v, want no pass", res)
		}
		checkMapMatchesRoutes(t, m, lr)
	})
}

// TestResumePreCancelledRecordsOnePass resumes a pre-cancelled run from
// every blob of a checkpoint-per-rip run. Whether the blob was taken at a
// pass boundary or mid-pass, the resumed leg records exactly one pass —
// the carried state, or the interrupted pass with nothing more ripped —
// and its final map agrees with its final routes.
func TestResumePreCancelledRecordsOnePass(t *testing.T) {
	l, ix, passages := preparedFunnel(t, 8, 2)
	var blobs []*Checkpoint
	cfg := checkpointConfig()
	cfg.CheckpointEvery = 1
	cfg.Checkpoint = func(cp *Checkpoint) error { blobs = append(blobs, cp); return nil }
	if _, err := Negotiate(context.Background(), l, ix, passages, cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawBoundary, sawMidPass := false, false
	for bi, cp := range blobs {
		midPass := cp.Pass != nil
		sawBoundary = sawBoundary || !midPass
		sawMidPass = sawMidPass || midPass
		res, err := NegotiateResume(ctx, l, ix, passages, checkpointConfig(), cp)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blob %d (mid-pass=%v): err = %v, want context.Canceled", bi, midPass, err)
		}
		if len(res.Passes) != 1 {
			t.Fatalf("blob %d (mid-pass=%v): recorded %d passes, want 1", bi, midPass, len(res.Passes))
		}
		checkMapMatchesRoutes(t, res.Map, res.Final())
	}
	if !sawBoundary || !sawMidPass {
		t.Fatalf("blobs cover boundary=%v mid-pass=%v; want both", sawBoundary, sawMidPass)
	}
}
