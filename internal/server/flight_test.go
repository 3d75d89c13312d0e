package server

import (
	"context"
	"testing"
	"time"
)

// TestFlightGroupJoinReportsShared pins join's shared flag, which labels
// the /v1/sweep header: the first join of a key starts the flight, a
// concurrent join attaches to it, and once the flight is removed (its
// last subscriber left) the next join starts a fresh one.
func TestFlightGroupJoinReportsShared(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	defer close(release)
	run := func(ctx context.Context, fl *flight) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		fl.finish(nil, ctx.Err())
	}

	first, shared := g.join("k", time.Minute, run)
	if shared {
		t.Fatal("first join of a key reported shared")
	}
	type joined struct {
		fl     *flight
		shared bool
	}
	second := make(chan joined)
	go func() {
		fl, shared := g.join("k", time.Minute, run)
		second <- joined{fl, shared}
	}()
	j := <-second
	if !j.shared || j.fl != first {
		t.Fatalf("concurrent join: shared=%v same flight=%v, want true, true", j.shared, j.fl == first)
	}
	if got := g.startedCount(); got != 1 {
		t.Fatalf("started %d computations for two joins, want 1", got)
	}

	first.leave()
	if g.live() != 1 {
		t.Fatal("flight removed while a subscriber remained")
	}
	j.fl.leave()
	if g.live() != 0 {
		t.Fatal("flight still mapped after its last subscriber left")
	}

	third, shared := g.join("k", time.Minute, run)
	defer third.leave()
	if shared || third == first {
		t.Fatalf("join after removal: shared=%v same flight=%v, want false, false", shared, third == first)
	}
	if got := g.startedCount(); got != 2 {
		t.Fatalf("started %d computations, want 2", got)
	}
}
