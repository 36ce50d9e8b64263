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

// steadyNetwork builds a network of eight nodes with crossing active
// flows — in each of clusters equal groups every node uploads to the next
// two, a connected mesh — and runs past every slow-start ramp. After a
// few passes have grown the region scratch a pass is steady: every rate
// recomputes bit-identically, so applyRates keeps every completion timer
// and schedules nothing.
func steadyNetwork(tb testing.TB, clusters int) *Network {
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
	// Huge sizes, so nothing completes while the clock is stopped.
	size := len(ids) / clusters
	for i, src := range ids {
		for k := 1; k <= 2; k++ {
			dst := ids[i-i%size+(i+k)%size]
			if _, err := n.StartTransfer(src, dst, 1<<40, TransferOptions{}, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	eng.RunUntil(60 * time.Second) // past setup and every ramp step
	return n
}

// The kinds of pass, each as one op over a warmed network.

// meshPass repeats one dirty pair on an unchanged mesh: one component
// filled from its lists as they stand.
func meshPass(tb testing.TB) func() {
	n := steadyNetwork(tb, 1)
	a, b := n.nodes[0].up, n.nodes[1].down
	return func() { n.reallocateOn(a, b) }
}

// twoComponentPass dirties one link in each of two disjoint clusters: two
// fills, and their flows merged in ID order for the apply.
func twoComponentPass(tb testing.TB) func() {
	n := steadyNetwork(tb, 2)
	a, b := n.nodes[0].up, n.nodes[4].down
	if a.comp == b.comp {
		tb.Fatal("the two clusters share a component")
	}
	return func() { n.reallocateOn(a, b) }
}

// rejoin puts f, detached, back on its links as its own replacement: the
// next ID, the same endpoints. It is what StartTransfer and activate do,
// without StartTransfer's allocations.
func rejoin(n *Network, f *Flow) {
	f.id, n.flowSeq = n.flowSeq, n.flowSeq+1
	f.flowsIdx, n.flows = len(n.flows), append(n.flows, f)
	f.upIdx, f.lup.flows = len(f.lup.flows), append(f.lup.flows, f)
	f.downIdx, f.ldown.flows = len(f.ldown.flows), append(f.ldown.flows, f)
	f.onLinks = true
	n.join(f)
}

// leaveAndRejoin returns the op that takes f off its links and puts it
// back as its own replacement, with the pass each change triggers.
func leaveAndRejoin(n *Network, f *Flow) func() {
	return func() {
		n.detach(f)
		n.reallocateOn(f.lup, f.ldown)
		rejoin(n, f)
		n.reallocateOn(f.lup, f.ldown)
	}
}

// churnPass takes one viewer-to-viewer flow of the star swarm off its
// links and puts it back, cycling through the viewers: what a viewer
// finishing a download and starting the next does to the allocator. Both
// links stay busy, so the leave runs the split search, which meets. The
// flows are unbounded, so a changed rate schedules no completion timer.
func churnPass(tb testing.TB) func() {
	eng, n := starSwarm(tb, 0, 0)
	eng.RunUntil(60 * time.Second)
	var ops []func()
	for _, f := range n.flows {
		if f.src != 0 {
			ops = append(ops, leaveAndRejoin(n, f))
		}
	}
	i := 0
	return func() {
		ops[i%len(ops)]()
		i++
	}
}

// bridgePass takes the one unbounded flow between two disjoint clusters
// off its links and puts it back: a leave whose split search splits the
// component in two, a pass over both, and a join that merges them again.
func bridgePass(tb testing.TB) func() {
	n := steadyNetwork(tb, 2)
	bridge, err := n.StartTransfer(0, 7, 0, TransferOptions{Unbounded: true}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	n.eng.RunUntil(120 * time.Second)
	if c := bridge.lup.comp; c != bridge.ldown.comp || len(c.flows) != 17 {
		tb.Fatal("the bridge does not join the two clusters")
	}
	return leaveAndRejoin(n, bridge)
}

// TestZeroAllocReallocate pins the steady-state incremental pass at zero
// allocations, and the joins and leaves between passes: component fills,
// the merged apply, the split search and the keep-timer apply path all
// run on reused scratch and reused components.
func TestZeroAllocReallocate(t *testing.T) {
	for name, pass := range map[string]func(testing.TB) func(){"mesh": meshPass, "two components": twoComponentPass, "churn": churnPass, "bridge": bridgePass} {
		op := pass(t)
		for i := 0; i < 64; i++ {
			op() // grow the scratch (and every churned link's list) to the high-water mark
		}
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: steady-state reallocateOn allocated %.1f times per op, want 0", name, allocs)
		}
	}
}

// TestZeroAllocReallocateFull extends the pin to the full-recompute
// oracle: it shares every hotpath with the incremental path and must stay
// alloc-free too, or the benchmark baseline would measure the garbage
// collector instead of the algorithm.
func TestZeroAllocReallocateFull(t *testing.T) {
	n := steadyNetwork(t, 1)
	n.reallocateFull() // warm the full-region scratch
	allocs := testing.AllocsPerRun(100, func() {
		n.reallocateFull()
	})
	if allocs != 0 {
		t.Errorf("steady-state reallocateFull allocated %.1f times per pass, want 0", allocs)
	}
}

// TestRateChangeReArmsCompletion pins what a rate change costs a live
// flow: nothing. applyRates re-arms the flow's one completion Timer in
// place — no new Timer, no stale queue entry, no closure (completeFn is
// bound once, at StartTransfer) — and the flow completes when its last
// rate says, not when an earlier one did.
func TestRateChangeReArmsCompletion(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	for i := 0; i < 2; i++ {
		if _, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1 << 20, DownlinkBytesPerSec: 1 << 20, AccessDelay: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	var doneAt time.Duration
	f, err := n.StartTransfer(0, 1, 1<<30, TransferOptions{}, func(*Flow) { doneAt = eng.Now() })
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(60 * time.Second)
	timer, pending := f.completion, eng.Pending()
	rate := int64(1 << 19)
	allocs := testing.AllocsPerRun(100, func() {
		rate ^= 1 << 18 // 768 KiB/s, 512 KiB/s, ...: the downlink is the bottleneck either way
		eta := f.anchorAt + seconds(f.anchorRemaining/f.rate)
		if err := n.SetDownlink(1, rate); err != nil {
			t.Fatal(err)
		}
		if f.completion != timer || eng.Pending() != pending {
			t.Fatal("the capacity change replaced the flow's completion timer or left a stale entry")
		}
		if f.anchorAt+seconds(f.anchorRemaining/f.rate) == eta {
			t.Fatal("the capacity change did not move the flow's completion")
		}
	})
	if allocs != 0 {
		t.Errorf("a rate change on a live flow allocated %.1f times, want 0", allocs)
	}
	want := f.anchorAt + seconds(f.anchorRemaining/f.rate)
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if doneAt != want {
		t.Errorf("flow completed at %v, want %v (its last rate's ETA)", doneAt, want)
	}
}

// transferCycle returns one transfer's whole life on a two-node network
// — start, activate, three slow-start doublings, two RTO-hazard checks,
// complete — after running one, so every call takes the Flow the last
// released, its timers and callbacks with it.
func transferCycle(tb testing.TB) (cycle func(), first *Flow, ramps *int, elapsed *time.Duration) {
	eng := sim.New(1)
	n := New(eng)
	for i := 0; i < 2; i++ {
		if _, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1 << 20, DownlinkBytesPerSec: 1 << 20, AccessDelay: 25 * time.Millisecond}); err != nil {
			tb.Fatal(err)
		}
	}
	ramps, elapsed = new(int), new(time.Duration)
	n.SetFlowObserver(func(ev FlowEvent) {
		if ev.Kind == FlowEventRamp {
			*ramps++
		}
	})
	done := func(*Flow) { *elapsed = eng.Now() }
	var last *Flow
	cycle = func() {
		f, err := n.StartTransfer(0, 1, 3<<20, TransferOptions{}, done)
		if err != nil {
			tb.Fatal(err)
		}
		last = f
		if err := eng.Run(0); err != nil {
			tb.Fatal(err)
		}
	}
	cycle()
	return cycle, last, ramps, elapsed
}

// TestZeroAllocTransferLifecycle pins a reused flow's lifecycle at zero
// allocations: StartTransfer pops the released Flow, and every timer of
// its life re-arms a Timer the first transfer made.
func TestZeroAllocTransferLifecycle(t *testing.T) {
	cycle, first, ramps, elapsed := transferCycle(t)
	if *ramps != 3 || *elapsed < 2*time.Second || first.hazardTimer == nil {
		t.Fatalf("the warm-up transfer ramped %d times over %v, want 3 doublings and two hazard checks", *ramps, *elapsed)
	}
	id := first.id
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a reused flow's lifecycle allocated %.1f times, want 0", allocs)
	}
	if first.id != id+101 {
		t.Errorf("after 101 more transfers the first Flow carries flow %d, want %d: it was not reused each time", first.id, id+101)
	}
}

// The benchmarks below are the -benchmem gates for the incremental
// reallocator: `make bench-alloc` fails if one reports nonzero allocs/op.

// BenchmarkHotpathTransferCycle is one transfer's lifecycle on a reused
// Flow: the per-transfer cost of netem outside the reallocation passes.
func BenchmarkHotpathTransferCycle(b *testing.B) {
	cycle, _, _, _ := transferCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkHotpathReallocate is one dirty pair repeated over the unchanged
// mesh: the fill and the keep-timer apply.
func BenchmarkHotpathReallocate(b *testing.B) { benchPass(b, meshPass(b)) }

// BenchmarkHotpathReallocateTwoComponents is a pass whose dirty links lie
// in two clusters: two fills and the merged apply.
func BenchmarkHotpathReallocateTwoComponents(b *testing.B) { benchPass(b, twoComponentPass(b)) }

// BenchmarkHotpathReallocateStarChurn is a flow leaving and its
// replacement joining the star swarm's one component: a split search
// that meets, an insertion by ID, and two passes.
func BenchmarkHotpathReallocateStarChurn(b *testing.B) { benchPass(b, churnPass(b)) }

// BenchmarkHotpathReallocateBridge is a bridge leaving two clusters (a
// split) and rejoining them (a merge), with the pass each triggers.
func BenchmarkHotpathReallocateBridge(b *testing.B) { benchPass(b, bridgePass(b)) }

func benchPass(b *testing.B, op func()) {
	for i := 0; i < 64; i++ {
		op() // warm the scratch to its high-water mark
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkHotpathReallocateStar is the repeated pair at the shape
// figures_paper runs at: one pass over the star swarm's single 27-flow,
// 18-link component, all ramps finished, in steady state. Mathis-capped
// flows, two near-tied links and uplinks of three different rates make
// the fill take several rounds.
func BenchmarkHotpathReallocateStar(b *testing.B) {
	eng, n := starSwarm(b, 1<<40, 0)
	eng.RunUntil(60 * time.Second)
	la, lb := n.nodes[0].up, n.nodes[1].down
	if c := la.comp; c != lb.comp || len(c.flows) != 27 || len(c.links) != 18 {
		b.Fatalf("star component is %d flows over %d links; want one of 27 over 18", len(c.flows), len(c.links))
	}
	benchPass(b, func() { n.reallocateOn(la, lb) })
}
