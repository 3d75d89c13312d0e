package graph

import "testing"

// TestAllEarlyBreakStopsEnumeration: breaking the range stops generation —
// the loop body runs exactly as often as requested, and the break returns
// (rather than exhausting the 2^15 labeled space first).
func TestAllEarlyBreakStopsEnumeration(t *testing.T) {
	bodies := 0
	for range All(6, EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
		bodies++
		if bodies == 3 {
			break
		}
	}
	if bodies != 3 {
		t.Fatalf("loop body ran %d times, want 3", bodies)
	}
}

// TestAllFreeTreesEarlyBreak: breaking the tree range stops the
// Beyer–Hedetniemi generation mid-stream.
func TestAllFreeTreesEarlyBreak(t *testing.T) {
	bodies := 0
	for range AllFreeTrees(9) {
		bodies++
		if bodies == 4 {
			break
		}
	}
	if bodies != 4 {
		t.Fatalf("loop body ran %d times, want 4", bodies)
	}
}
