// Zero-allocation tests for the //lint:hotpath contract on the
// incremental reallocator: in steady state (no rate changes, live
// completion timers) a reallocation pass touches only generation-stamped
// scratch that has already grown to its high-water mark, so it must not
// allocate. Excluded under -race because race instrumentation inserts
// allocations the production build does not have.

//go:build !race

package netem

import (
	"testing"
	"time"

	"p2psplice/internal/sim"
)

// steadyNetwork builds a network with crossing active flows, runs past
// every slow-start ramp, and returns it with one dirty link pair to
// reallocate on. The first reallocation grows the region scratch; after
// that the pass is steady: every rate recomputes bit-identically, so
// applyRates keeps every completion timer and schedules nothing.
func steadyNetwork(tb testing.TB) (*Network, *link, *link) {
	tb.Helper()
	eng := sim.New(1)
	n := New(eng)
	ids := make([]NodeID, 8)
	for i := range ids {
		id, err := n.AddNode(NodeConfig{
			UplinkBytesPerSec:   int64(128+32*i) << 10,
			DownlinkBytesPerSec: 1 << 20,
			AccessDelay:         10 * time.Millisecond,
		})
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	// A connected mesh: every node uploads to the next two, huge sizes so
	// nothing completes while the clock is stopped.
	for i, src := range ids {
		for k := 1; k <= 2; k++ {
			dst := ids[(i+k)%len(ids)]
			if _, err := n.StartTransfer(src, dst, 1<<40, TransferOptions{}, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	eng.RunUntil(60 * time.Second) // past setup and every ramp step
	a, b := n.nodes[ids[0]].up, n.nodes[ids[1]].down
	n.reallocateOn(a, b) // warm the region scratch to its high-water mark
	return n, a, b
}

// TestZeroAllocReallocate pins the steady-state incremental pass at zero
// allocations: region collection, key sorts, component fills, and the
// keep-timer apply path all run on reused scratch.
func TestZeroAllocReallocate(t *testing.T) {
	n, a, b := steadyNetwork(t)
	allocs := testing.AllocsPerRun(100, func() {
		n.reallocateOn(a, b)
	})
	if allocs != 0 {
		t.Errorf("steady-state reallocateOn allocated %.1f times per pass, want 0", allocs)
	}
}

// TestZeroAllocReallocateFull extends the pin to the full-recompute
// oracle: it shares every hotpath with the incremental path and must stay
// alloc-free too, or the benchmark baseline would measure the garbage
// collector instead of the algorithm.
func TestZeroAllocReallocateFull(t *testing.T) {
	n, _, _ := steadyNetwork(t)
	n.reallocateFull() // warm the full-region scratch
	allocs := testing.AllocsPerRun(100, func() {
		n.reallocateFull()
	})
	if allocs != 0 {
		t.Errorf("steady-state reallocateFull allocated %.1f times per pass, want 0", allocs)
	}
}

// BenchmarkHotpathReallocate is the -benchmem gate for the incremental
// reallocator: `make bench-alloc` fails if it reports nonzero allocs/op.
// Each op is one steady-state dirty-pair reallocation over the mesh.
func BenchmarkHotpathReallocate(b *testing.B) {
	n, la, lb := steadyNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.reallocateOn(la, lb)
	}
}

// BenchmarkHotpathReallocateStar is the same gate at the shape
// figures_paper runs at: one pass over the star swarm's single 27-flow,
// 18-link component, all ramps finished, in steady state. Mathis-capped
// flows, two near-tied links and uplinks of three different rates make
// the fill take several rounds.
func BenchmarkHotpathReallocateStar(b *testing.B) {
	eng, n := starSwarm(b, 1<<40, 0)
	eng.RunUntil(60 * time.Second)
	la, lb := n.nodes[0].up, n.nodes[1].down
	n.reallocateOn(la, lb) // warm the region scratch to its high-water mark
	if len(n.compBounds) != 1 || len(n.regionFlows) != 27 || len(n.regionLinks) != 18 {
		b.Fatalf("star region is %d components, %d flows, %d links; want 1, 27, 18", len(n.compBounds), len(n.regionFlows), len(n.regionLinks))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.reallocateOn(la, lb)
	}
}
