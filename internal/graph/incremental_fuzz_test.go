package graph

import "testing"

// FuzzIncrementalDistance differentially pins the incremental kernel: an
// arbitrary byte string is decoded as a toggle program (each byte flips
// one vertex pair of a small graph), and after every prefix the IncDist
// rows and aggregates must equal a fresh BFSScratchInto of the same graph.
// Before every insertion the read-only AddedStats prediction for both
// endpoints must equal the rows AddEdge then repairs.
func FuzzIncrementalDistance(f *testing.F) {
	f.Add(uint8(5), []byte{0x01, 0x02, 0x01, 0x13, 0x42})
	f.Add(uint8(2), []byte{0x01, 0x01, 0x01})
	f.Add(uint8(9), []byte{0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78, 0x08, 0x12})
	f.Add(uint8(16), []byte("incremental-apsp"))
	// Additions that join components while other vertices stay isolated.
	f.Add(uint8(8), []byte{0x01, 0x23, 0x12, 0x45, 0x34, 0x06})
	f.Add(uint8(15), []byte{0x9a, 0xbc, 0x9b, 0x01, 0x0c, 0x5e})
	f.Fuzz(func(t *testing.T, nRaw uint8, program []byte) {
		n := int(nRaw)%16 + 2 // 2..17 vertices
		if len(program) > 64 {
			program = program[:64]
		}
		g := New(n)
		d := NewIncDist(g)
		// Alternate thresholds across programs so both the incremental
		// cascade and the fallback recompute stay under differential test.
		if len(program) > 0 && program[0]&1 == 1 {
			d.SetThreshold(1)
		}
		dist := make([]int, n)
		var bfs BFSScratch
		for step, b := range program {
			u := int(b>>4) % n
			v := int(b&0x0f) % n
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				if !d.RemoveEdge(u, v) {
					t.Fatalf("step %d: RemoveEdge(%d,%d) refused an existing edge", step, u, v)
				}
			} else {
				su, sv := d.AddedStats(u, v)
				if !d.AddEdge(u, v) {
					t.Fatalf("step %d: AddEdge(%d,%d) refused a missing edge", step, u, v)
				}
				for _, p := range []struct {
					s   int
					got RowStats
				}{{u, su}, {v, sv}} {
					want := RowStats{Sum: d.SumDist(p.s), Max: d.MaxDist(p.s), Unreach: int64(d.UnreachableFrom(p.s))}
					if p.got != want {
						t.Fatalf("step %d: AddedStats(%d,%d) row %d = %+v, AddEdge repairs %+v", step, u, v, p.s, p.got, want)
					}
				}
			}
			for s := 0; s < n; s++ {
				g.BFSScratchInto(s, dist, &bfs)
				var sum int64
				var un int
				for x, dv := range dist {
					if got := d.Dist(s, x); got != dv {
						t.Fatalf("step %d: dist(%d,%d) = %d, want %d", step, s, x, got, dv)
					}
					if dv == Unreachable {
						un++
					} else {
						sum += int64(dv)
					}
				}
				if d.SumDist(s) != sum || d.UnreachableFrom(s) != un {
					t.Fatalf("step %d: aggregates of %d = (%d,%d), want (%d,%d)",
						step, s, d.SumDist(s), d.UnreachableFrom(s), sum, un)
				}
			}
		}
	})
}
