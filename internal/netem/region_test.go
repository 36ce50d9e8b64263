package netem

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The star keeps one swarm-wide component, so it rarely shows the
// persistent components a bridge that splits one, two that merge, passes
// alternating between components, or a member far older than the rest.
// Each shape below is a differential script (the byte format of
// differentialScript, so it is a FuzzReallocate seed too): the paired
// oracle, the fill reference, the per-pass region check and the
// per-event component check all run, and the pass log shows that the
// script really produced the shape.

// passRecord is what one incremental pass filled, as watchRegion saw it.
type passRecord struct {
	a     *link // the first dirty link
	comps int
	flows []int   // the region's flow IDs, in region order
	objs  []*Flow // the region's flows
	// left is the last flow to leave the links before the pass, and
	// leftID its ID then.
	left   *Flow
	leftID int
}

// recordPasses is the regionMutant that mutates nothing and logs.
func recordPasses(log *[]passRecord) regionMutant {
	var left *Flow
	var leftID int
	return regionMutant{
		member: func(_ *Network, f *Flow, joined bool) {
			if !joined {
				left, leftID = f, f.id
			}
		},
		pass: func(n *Network, a, _ *link) {
			*log = append(*log, passRecord{a: a, comps: len(n.compBounds), flows: flowIDs(n.regionFlows),
				objs: slices.Clone(n.regionFlows), left: left, leftID: leftID})
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
func (s script) toggleLink(node int) script    { return append(s, 6, byte(node)) }

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
		name:   "a cancelled bridge splits its component: the pass fills both halves",
		script: bridgeScript,
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
		// Two 8-flow meshes; 0→7 then activates across them: one component
		// of 17, merged from the two.
		name:   "an activation merges two components",
		script: mergeScript,
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
		// first again: each pass fills its own mesh as it stands.
		name:   "passes alternate between two components",
		script: newScript(8).mesh(0, 4).mesh(4, 8).step(47).step(47).setUplink(0).setUplink(4).setUplink(0).setUplink(0),
		shown: func(log []passRecord) bool {
			for i := 2; i < len(log); i++ {
				if l := log[i-2 : i+1]; l[0].a == l[2].a && l[0].a != l[1].a &&
					len(l[0].flows) == 8 && len(l[1].flows) == 8 && len(l[2].flows) == 8 && !slices.Equal(l[0].flows, l[1].flows) {
					return true
				}
			}
			return false
		},
	},
	{
		// Capacity events on a 12-flow mesh, on the lone flow 6→7, on the
		// mesh again.
		name:   "a one-flow component beside a mesh",
		script: newScript(8).mesh(0, 6).start(6, 7).step(47).setUplink(0).setUplink(6).setUplink(1),
		shown: func(log []passRecord) bool {
			for i := 2; i < len(log); i++ {
				if l := log[i-2 : i+1]; len(l[0].flows) == 12 && len(l[1].flows) == 1 && len(l[2].flows) == 12 {
					return true
				}
			}
			return false
		},
	},
	{
		// Flow 0 is unbounded cross-traffic on a 16-flow mesh whose other
		// flows come and go, one at a time so the mesh stays whole: every
		// insertion and removal is into a list that starts at the oldest ID
		// there is.
		name: "a long-lived unbounded flow whose old ID sorts first",
		script: newScript(8).unbounded(0, 1).mesh(0, 8).step(47).
			cancel(3).start(1, 2).step(20).cancel(9).start(4, 5).step(20).cancel(1).step(20),
		shown: func(log []passRecord) bool {
			shrunk, grown := 0, 0 // by the cancels; by the activations after the first of them
			for i := 1; i < len(log); i++ {
				if log[i].comps != 1 || log[i].flows[0] != 0 {
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
		// The short 0→3 (flow 14) activates first, on a warm connection;
		// the mesh's flows then join its component with lower IDs. Flow 14
		// completes first, and the next StartTransfer takes its Flow: as
		// flow 15, 1→4 activates into the component.
		name:   "a member completes and its Flow rejoins the component under a new ID",
		script: reuseScript,
		shown: func(log []passRecord) bool {
			for i, p := range log {
				if p.left == nil {
					continue
				}
				for _, q := range log[i+1:] {
					if q.comps == 1 && len(q.flows) > 12 && slices.Contains(q.objs, p.left) && p.left.id != p.leftID {
						return true
					}
				}
			}
			return false
		},
	}, {
		// 0→1 and 1→2 share no link, so node 1's uplink and downlink lie in
		// two components, the first holding the later flow. Downing and
		// restoring node 1 revives both in one pass; they then finish at
		// the same instant, in the order that pass re-armed them: ID order.
		name:   "a pass over two components applies their flows in ID order",
		script: newScript(3).start(0, 1).start(1, 2).step(40).toggleLink(1).toggleLink(1),
		shown: func(log []passRecord) bool {
			for _, p := range log {
				if p.comps == 2 && len(p.flows) == 2 && p.flows[0] > p.flows[1] {
					return true
				}
			}
			return false
		},
	},
}

// The scripts the component mutants below are named by.
var (
	bridgeScript = newScript(4).start(0, 1).start(2, 3).start(0, 3).step(40).cancel(2).step(20)
	mergeScript  = newScript(8).mesh(0, 4).mesh(4, 8).step(40).setUplink(0).setUplink(4).start(0, 7).step(30)
)

// reuseScript is the regionShapes script in which a member completes and
// its Flow comes back under a new ID. Its short flow activates first, so
// the mesh's flows join its component with lower IDs: the script the
// appended newcomer fails.
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
				t.Logf("  components=%d flows=%v", p.comps, p.flows)
			}
		}
	}
}

// The component mutants are the mistakes persistent components invite,
// each seeded by the state change that has the mistake's effect, made
// right after the join or leave production got right.

// mutantSkipSplit is a leave that skips the split search: a bridge's
// two sides stay one component.
func mutantSkipSplit() regionMutant {
	return regionMutant{member: func(n *Network, f *Flow, joined bool) {
		if c, d := f.lup.comp, f.ldown.comp; !joined && c != nil && d != nil && c != d {
			n.merge(c, d)
		}
	}}
}

// mutantStaleLabels undoes the relabelling a join (onJoin) or a leave does
// to links that already had a component: a merge that leaves the absorbed
// links pointing at the freed component, or a split that leaves the far
// side pointing at the old one.
func mutantStaleLabels(onJoin bool) regionMutant {
	labels := map[*link]*component{}
	return regionMutant{member: func(n *Network, _ *Flow, joined bool) {
		for _, nd := range n.nodes {
			for _, l := range [2]*link{nd.up, nd.down} {
				if old := labels[l]; joined == onJoin && old != nil && l.comp != nil && l.comp != old {
					l.comp = old
				}
				labels[l] = l.comp
			}
		}
	}}
}

// mutantNewcomerLast appends an activating flow after every member its
// component already had, instead of inserting it by ID.
func mutantNewcomerLast() regionMutant {
	return regionMutant{member: func(_ *Network, f *Flow, joined bool) {
		if !joined {
			return
		}
		fs := f.lup.comp.flows
		i := slices.Index(fs, f)
		copy(fs[i:], fs[i+1:])
		fs[len(fs)-1] = f
	}}
}

// TestComponentMutantsCaught proves the region and component checks have
// teeth: each mutant must fail the script named for it, and the
// randomized differential scripts. All but the unrelabelled merge show on
// the star swarm too; the star never merges two components.
func TestComponentMutantsCaught(t *testing.T) {
	for _, m := range []struct {
		name   string
		mutant func() regionMutant
		script script
		onStar bool
	}{
		{"a leave that skips the split search", mutantSkipSplit, bridgeScript, true},
		{"a merge that does not relabel the absorbed links", func() regionMutant { return mutantStaleLabels(true) }, mergeScript, false},
		{"a split that leaves the far side pointing at the old component", func() regionMutant { return mutantStaleLabels(false) }, bridgeScript, true},
		{"a newcomer appended rather than inserted by ID", mutantNewcomerLast, reuseScript, true},
	} {
		if differentialScriptWith(m.script, (*Network).fillComponent, m.mutant(), nil) == nil {
			t.Errorf("its script did not catch the mutant: %s", m.name)
		}
		if m.onStar {
			eng, n := starSwarm(t, 3<<20, 40*time.Millisecond)
			regionErr := watchRegion(n, m.mutant())
			for *regionErr == nil && eng.Step() {
			}
			if *regionErr == nil {
				t.Errorf("star swarm did not catch the mutant: %s", m.name)
			}
		}
		caught := false
		r := rand.New(rand.NewSource(20))
		for i := 0; i < 200 && !caught; i++ {
			caught = differentialScriptWith(randomScript(r, 40+r.Intn(200)), (*Network).fillComponent, m.mutant(), nil) != nil
		}
		if !caught {
			t.Errorf("200 differential scripts did not catch the mutant: %s", m.name)
		}
	}
}
