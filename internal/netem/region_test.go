package netem

import (
	"slices"
	"testing"
)

// The star keeps one swarm-wide component, so it never shows the cached
// region a component that splits, two that join, a pass elsewhere in
// between, or a member far older than the rest. Each shape below is a
// differential script (the byte format of differentialScript, so it is a
// FuzzReallocate seed too): the paired oracle, the fill reference and the
// per-pass region check all run, and the pass log shows that the script
// really produced the shape.

// passRecord is what one incremental pass did, as watchRegion saw it.
type passRecord struct {
	a      *link // the first dirty link
	reused bool  // the cached region as it stood: no collection generation started
	prev   bool  // going in, there was a previous region to order a walked component from
	comps  int
	flows  []int   // the region's flow IDs, in region order
	objs   []*Flow // the region's flows
	// left is a flow that, going in, had left the links while a member of
	// the previous region that orders walks, and leftID its ID then.
	left   *Flow
	leftID int
}

// recordPasses is the regionMutant that mutates nothing and logs.
func recordPasses(log *[]passRecord) regionMutant {
	var rec passRecord
	var before uint64
	return regionMutant{
		pre: func(n *Network, a, _ *link) {
			before = n.allocGen
			rec = passRecord{a: a, prev: n.prevGen != 0 || n.regionGen != 0 && len(n.regionFlows) >= filterMinFlows}
			for _, f := range n.prevFlows {
				if f.state != flowActive && n.prevGen != 0 {
					rec.left, rec.leftID = f, f.id
				}
			}
		},
		post: func(n *Network, _, _ *link) {
			rec.reused, rec.comps = n.allocGen == before, len(n.compBounds)
			rec.flows, rec.objs = flowIDs(n.regionFlows), slices.Clone(n.regionFlows)
			*log = append(*log, rec)
		},
	}
}

// script builds a differential script: seed 7, then nodes of 100 kB/s
// links, 10 ms access delay and no loss, so the 5 MB transfers below
// outlast every script and activate in creation order.
type script []byte

func newScript(nodes int) script {
	s := script{0, 7, byte(nodes - 2)}
	for i := 0; i < nodes; i++ {
		s = append(s, 20, 20, 10, 0)
	}
	return s
}

func (s script) start(src, dst int) script     { return append(s, 0, byte(src), byte(dst), 250) }
func (s script) short(src, dst int) script     { return append(s, 0, byte(src), byte(dst), 1) } // 30 kB on a warm connection
func (s script) unbounded(src, dst int) script { return append(s, 0, byte(src), byte(dst), 0) }
func (s script) step(events int) script        { return append(s, 3, byte(events-1)) }
func (s script) cancel(flow int) script        { return append(s, 4, byte(flow)) }
func (s script) setUplink(node int) script     { return append(s, 5, byte(node), 9, 0) }

// mesh starts a transfer from each of nodes [lo, hi) to the next two of
// them: one component of 2·(hi-lo) flows.
func (s script) mesh(lo, hi int) script {
	for i := lo; i < hi; i++ {
		for k := 1; k <= 2; k++ {
			s = s.start(i, lo+(i-lo+k)%(hi-lo))
		}
	}
	return s
}

var regionShapes = []struct {
	name   string
	script script
	// shown reports whether the pass log holds the shape.
	shown func(log []passRecord) bool
}{
	{
		// 0→1 and 2→3 share nothing until 0→3 bridges them; cancelling the
		// bridge dirties up0 and down3, now in a component each.
		name:   "a completing bridge splits the cached component",
		script: newScript(4).start(0, 1).start(2, 3).start(0, 3).step(40).cancel(2).step(20),
		shown: func(log []passRecord) bool {
			for i := 1; i < len(log); i++ {
				if len(log[i-1].flows) == 3 && log[i-1].comps == 1 && log[i].comps == 2 && len(log[i].flows) == 2 {
					return true
				}
			}
			return false
		},
	},
	{
		// Two 8-flow meshes, the second walked last, so cached; 0→7 then
		// activates across them: one component of 17, 8 of them in the
		// previous region's order and 9 not in it.
		name:   "an activation joins the cached component to another",
		script: newScript(8).mesh(0, 4).mesh(4, 8).step(40).setUplink(0).setUplink(4).start(0, 7).step(30),
		shown: func(log []passRecord) bool {
			for i := 1; i < len(log); i++ {
				if len(log[i-1].flows) == 8 && log[i-1].comps == 1 && len(log[i].flows) == 17 && log[i].comps == 1 {
					return true
				}
			}
			return false
		},
	},
	{
		// Capacity events (no graph change) on one mesh, the other, the
		// first again twice: reused only the last time.
		name:   "a pass on a disjoint cluster evicts the region: miss, then hit",
		script: newScript(8).mesh(0, 4).mesh(4, 8).step(47).step(47).setUplink(0).setUplink(4).setUplink(0).setUplink(0),
		shown: func(log []passRecord) bool {
			for i := 3; i < len(log); i++ {
				if l := log[i-3 : i+1]; l[0].a == l[2].a && l[0].a != l[1].a && !l[1].reused && !l[2].reused && l[3].reused {
					return true
				}
			}
			return false
		},
	},
	{
		// Capacity events on a 12-flow mesh, on the lone flow 6→7, on the
		// mesh again: the one-flow region does not evict the mesh's, which
		// is still there to order the third pass's walk.
		name:   "a pass on a small component leaves the previous region in place",
		script: newScript(8).mesh(0, 6).start(6, 7).step(47).setUplink(0).setUplink(6).setUplink(1),
		shown: func(log []passRecord) bool {
			for i := 2; i < len(log); i++ {
				if l := log[i-2 : i+1]; len(l[0].flows) == 12 && len(l[1].flows) == 1 && len(l[2].flows) == 12 && !l[2].reused && l[2].prev {
					return true
				}
			}
			return false
		},
	},
	{
		// Flow 0 is unbounded cross-traffic on a 16-flow mesh whose other
		// flows come and go, one at a time so the mesh stays whole: every
		// sweep over the previous region starts at the oldest ID there is.
		name: "a long-lived unbounded flow whose old ID sorts first",
		script: newScript(8).unbounded(0, 1).mesh(0, 8).step(47).
			cancel(3).start(1, 2).step(20).cancel(9).start(4, 5).step(20).cancel(1).step(20),
		shown: func(log []passRecord) bool {
			shrunk, grown := 0, 0 // by the cancels; by the activations after the first of them
			for i := 1; i < len(log); i++ {
				if log[i].comps != 1 || len(log[i].flows) < filterMinFlows || log[i].flows[0] != 0 {
					continue
				}
				switch d := len(log[i].flows) - len(log[i-1].flows); {
				case d < 0:
					shrunk++
				case d > 0 && shrunk > 0:
					grown++
				}
			}
			return shrunk == 3 && grown == 2
		},
	},
	{
		// The mesh and the short 0→3 (flow 14) activate last, as one
		// component; a rate change on 6↔7 makes them the previous region.
		// Flow 14 completes first, as a member of it, and the next
		// StartTransfer takes its Flow: as flow 15, 1→4 activates into the
		// component, ordered by a sweep over the 12 the completion left.
		name:   "a member of the previous region completes and its Flow is reused in the component",
		script: reuseScript,
		shown: func(log []passRecord) bool {
			for i, p := range log {
				if p.left == nil || !p.prev {
					continue
				}
				for _, q := range log[i+1:] {
					if q.prev && !q.reused && len(q.flows) > filterMinFlows && q.comps == 1 &&
						slices.Contains(q.objs, p.left) && p.left.id != p.leftID {
						return true
					}
				}
			}
			return false
		},
	},
}

// reuseScript is the regionShapes script in which a member of the
// previous region completes and its Flow comes back under a new ID.
var reuseScript = newScript(8).start(6, 7).start(7, 6).mesh(0, 6).short(0, 3).step(15).setUplink(6).step(1).start(1, 4).step(1)

// TestRegionShapes runs each shape through the differential harness and
// requires the shape to have occurred.
func TestRegionShapes(t *testing.T) {
	for _, shape := range regionShapes {
		var log []passRecord
		if err := differentialScriptWith(shape.script, (*Network).fillComponent, recordPasses(&log), nil); err != nil {
			t.Errorf("%s: %v", shape.name, err)
		}
		if !shape.shown(log) {
			t.Errorf("%s: the script did not produce the shape; passes:", shape.name)
			for _, p := range log {
				t.Logf("  reused=%v components=%d flows=%v", p.reused, p.comps, p.flows)
			}
		}
	}
}

// mutantPrevOutlivesMember keeps the previous region ordering walks after
// a pass re-marked it, which is the step mergeFlows' argument rests on:
// without it a member that completes stays in a live previous region, and
// its reused Flow could be swept under its old place there.
func mutantPrevOutlivesMember() regionMutant {
	var gen uint64
	return regionMutant{
		pre: func(n *Network, _, _ *link) { gen = n.prevGen },
		post: func(n *Network, _, _ *link) {
			if n.prevGen == 0 {
				n.prevGen = gen
			}
		},
	}
}

// TestRegionCatchesPrevOutlivingMember proves checkPrevLive has teeth on
// the reuse script: with the previous region kept past its member's
// completion, the watch must fail.
func TestRegionCatchesPrevOutlivingMember(t *testing.T) {
	if differentialScriptWith(reuseScript, (*Network).fillComponent, mutantPrevOutlivesMember(), nil) == nil {
		t.Error("the reuse script did not catch a previous region that outlives a completed member")
	}
}
