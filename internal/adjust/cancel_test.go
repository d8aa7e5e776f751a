package adjust

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
)

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, gen.Funnel(10), Options{Pitch: 2, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run must return the partial result")
	}
	if len(res.Iterations) != 0 || res.Converged {
		t.Fatalf("no iteration should have completed: %+v", res)
	}
}

func TestRunCtxMatchesRunWhenUncancelled(t *testing.T) {
	l := gen.Funnel(10)
	a, err := Run(l, Options{Pitch: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), l, Options{Pitch: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Converged != b.Converged || len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("RunCtx diverged from Run: %+v vs %+v", a.Iterations, b.Iterations)
	}
	if a.Layout.Bounds != b.Layout.Bounds {
		t.Fatalf("adjusted bounds diverged: %v vs %v", a.Layout.Bounds, b.Layout.Bounds)
	}
}
