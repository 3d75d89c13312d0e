package dynamics

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
)

func TestStateGraphRoundTrip(t *testing.T) {
	for state := 0; state < 1<<6; state++ {
		g := stateToGraph(4, state)
		if graphToState(g) != state {
			t.Fatalf("state %d does not round-trip", state)
		}
	}
}

func TestAnalyzeStateGraphTooLarge(t *testing.T) {
	if _, err := AnalyzeStateGraph(context.Background(), 7, game.A(2), []Kind{AddKind}); err == nil {
		t.Fatal("n=7 state graph accepted")
	}
}

// The sinks of the {remove, add} state graph are exactly the PS states.
func TestStateGraphSinksArePS(t *testing.T) {
	alpha := game.A(2)
	res, err := AnalyzeStateGraph(context.Background(), 4, alpha, []Kind{RemoveKind, AddKind})
	if err != nil {
		t.Fatal(err)
	}
	gm, _ := game.NewGame(4, alpha)
	wantSinks := 0
	for state := 0; state < res.States; state++ {
		if eq.Check(gm, stateToGraph(4, state), eq.PS).Stable {
			wantSinks++
		}
	}
	if res.Sinks != wantSinks {
		t.Fatalf("sinks = %d, PS states = %d", res.Sinks, wantSinks)
	}
	if res.Sinks == 0 {
		t.Fatal("no PS states at α=2, impossible (star is PS)")
	}
}

// Improving moves strictly decrease the mover's cost, so any cycle would
// require costs to rise again: verify the analysis agrees with a direct
// run — when the state graph is acyclic, dynamics must converge from every
// start (spot-checked from all states at n=4).
func TestAcyclicMeansConvergent(t *testing.T) {
	alpha := game.AFrac(3, 2)
	res, err := AnalyzeStateGraph(context.Background(), 4, alpha, []Kind{RemoveKind, AddKind})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acyclic {
		// A cycle is a legitimate finding (see the DYN experiment), but
		// then the witness must be present.
		if res.CycleWitness == nil {
			t.Fatal("cyclic verdict without witness")
		}
		return
	}
	gm, _ := game.NewGame(4, alpha)
	rng := rand.New(rand.NewSource(71))
	for state := 0; state < res.States; state++ {
		g := stateToGraph(4, state)
		tr, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Converged {
			t.Fatalf("acyclic state graph but run from state %d did not converge", state)
		}
	}
}

func TestStateGraphWithSwaps(t *testing.T) {
	res, err := AnalyzeStateGraph(context.Background(), 4, game.A(3), []Kind{RemoveKind, AddKind, SwapKind})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 64 {
		t.Fatalf("states = %d, want 64", res.States)
	}
	gm, _ := game.NewGame(4, game.A(3))
	for state := 0; state < res.States; state++ {
		g := stateToGraph(4, state)
		// Sinks of the full move set are exactly BGE states.
		isSink := true
		for _, m := range collectMoves(g, Options{Kinds: []Kind{RemoveKind, AddKind, SwapKind}}) {
			if eq.Improving(gm, g, m) {
				isSink = false
				break
			}
		}
		if isSink != eq.Check(gm, g, eq.BGE).Stable {
			t.Fatalf("sink/BGE mismatch at state %d: %s", state, g)
		}
	}
}
