package netem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"p2psplice/internal/sim"
)

// The fill reference. TestQuickIncrementalMatchesFull compares two paths
// that share fillComponent and the canonical order, so it cannot see a
// mistake inside the fill, nor one the full pass's walk and the persistent
// components would both make. The code below is the straightforward form
// — pointer heapsorts for the canonical order, a progressive fill that
// rescans the whole component every round — kept test-only as the oracle
// the production forms must match to the bit. checkFill runs after every
// event of every differential script (differential_test.go) and of the
// star swarm below, and so does checkComponents in the differential
// scripts; checkRegion runs inside every incremental pass of both
// (watchRegion), on the components join and leave kept.

// refRegion is the reference region discovery: the same walk as
// collectComponent, with its own visited sets, indexed by ord and ID,
// instead of the generation marks — it reads the network and writes
// nothing, so it can run inside a pass — ordered by heapsorting the
// pointer slices.
type refRegion struct {
	links  []*link
	flows  []*Flow
	bounds []compBound
	seenL  []bool
	seenF  []bool
}

// visit marks i seen, growing seen to hold it, and reports whether it was
// not seen before.
func visit(seen *[]bool, i int) bool {
	if i >= len(*seen) {
		*seen = append(*seen, make([]bool, max(i+1, 64, 2*len(*seen))-len(*seen))...)
	}
	was := (*seen)[i]
	(*seen)[i] = true
	return !was
}

func (r *refRegion) collect(seed *link) {
	if seed == nil || len(seed.flows) == 0 || !visit(&r.seenL, seed.ord) {
		return
	}
	l0, f0 := len(r.links), len(r.flows)
	queue := []*link{seed}
	r.links = append(r.links, seed)
	for len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, f := range l.flows {
			if !visit(&r.seenF, f.id) {
				continue
			}
			r.flows = append(r.flows, f)
			for _, fl := range [2]*link{f.lup, f.ldown} {
				if visit(&r.seenL, fl.ord) {
					r.links = append(r.links, fl)
					queue = append(queue, fl)
				}
			}
		}
	}
	heapsort(r.links[l0:], func(a, b *link) bool { return a.ord > b.ord })
	heapsort(r.flows[f0:], func(a, b *Flow) bool { return a.id > b.id })
	r.bounds = append(r.bounds, compBound{l0: l0, l1: len(r.links), f0: f0, f1: len(r.flows)})
}

// heapsort sorts xs ascending in place; after reports a > b.
func heapsort[T any](xs []T, after func(a, b T) bool) {
	sift := func(i, k int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && after(xs[c+1], xs[c]) {
				c++
			}
			if !after(xs[c], xs[i]) {
				return
			}
			xs[i], xs[c] = xs[c], xs[i]
			i = c
		}
	}
	for i := len(xs)/2 - 1; i >= 0; i-- {
		sift(i, len(xs))
	}
	for i := len(xs) - 1; i > 0; i-- {
		xs[0], xs[i] = xs[i], xs[0]
		sift(0, i)
	}
}

// refFillComponent is the reference progressive fill: every round scans
// every link and every flow, and reads capLimit where it needs it.
func refFillComponent(n *Network, links []*link, flows []*Flow) {
	for _, l := range links {
		excess := len(l.flows) - n.model.concurrencyFreeFlows
		if excess < 0 {
			excess = 0
		}
		l.remaining = l.capacity / (1 + n.model.concurrencyPenalty*float64(excess))
		l.unfixed = len(l.flows)
	}
	nFixed := 0
	for nFixed < len(flows) {
		minShare := math.Inf(1)
		var bottleneck *link
		for _, l := range links {
			if l.unfixed == 0 {
				continue
			}
			share := l.remaining / float64(l.unfixed)
			if share < minShare-allocEpsilon {
				minShare = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		anyCapped := false
		for _, f := range flows {
			if f.fixMark == n.fillGen {
				continue
			}
			if f.capLimit() <= minShare+allocEpsilon {
				n.fixFlow(f, f.capLimit())
				nFixed++
				anyCapped = true
			}
		}
		if anyCapped {
			continue
		}
		for _, f := range flows {
			if f.fixMark == n.fillGen {
				continue
			}
			if f.lup == bottleneck || f.ldown == bottleneck {
				n.fixFlow(f, minShare)
				nFixed++
			}
		}
	}
}

// fillFunc is the fill under test: (*Network).fillComponent, or a mutant.
type fillFunc func(n *Network, links []*link, flows []*Flow)

// The two seeded mutants are the production fill handed its inputs in the
// wrong order — the ordering mistakes a rewrite of the fill or of the sort
// in front of it would make. Neither changes the region checkFill sees;
// both are visible only in the bits of the rates.

// mutantCapsReversed fixes capped flows (and a bottleneck's flows) in
// descending ID order.
func mutantCapsReversed(n *Network, links []*link, flows []*Flow) {
	rev := slices.Clone(flows)
	slices.Reverse(rev)
	n.fillComponent(links, rev)
}

// mutantLinksReversed scans links for the bottleneck in descending ord.
func mutantLinksReversed(n *Network, links []*link, flows []*Flow) {
	rev := slices.Clone(links)
	slices.Reverse(rev)
	n.fillComponent(rev, flows)
}

// The round mistakes are fillComponent with one step of its round
// structure changed, each a shortcut the fill's bookkeeping invites. The
// first is a control: it changes no bit, and the fill relies on that.
type roundMistake uint8

const (
	batchReversed       roundMistake = iota + 1 // a bottleneck's flows fixed in descending ID order: equivalent, not a mistake
	batchRefixes                                // the bottleneck's walk does not skip flows a cap fixed
	drainedShareStale                           // a link whose last flow is fixed keeps its last share, not +Inf
	minCapNotRecomputed                         // the cap scan resets minCap but recomputes it from no kept flow
)

// mistakenFill returns a copy of fillComponent, in test form, with m made
// (none for 0). A bottleneck that names no unfixed flow, which only a
// stale share can do, ends the copy's fill.
func mistakenFill(m roundMistake) fillFunc {
	return func(n *Network, links []*link, flows []*Flow) {
		for _, l := range links {
			excess := max(len(l.flows)-n.model.concurrencyFreeFlows, 0)
			l.remaining = l.capacity / (1 + n.model.concurrencyPenalty*float64(excess))
			l.unfixed = len(l.flows)
			l.share = l.remaining / float64(l.unfixed)
		}
		fix := func(f *Flow, rate float64) {
			shares := [2]float64{f.lup.share, f.ldown.share}
			n.fixFlow(f, rate)
			for i, l := range [2]*link{f.lup, f.ldown} {
				if m == drainedShareStale && l.unfixed == 0 {
					l.share = shares[i]
				}
			}
		}
		live, minCap := slices.Clone(flows), math.Inf(1)
		for _, f := range flows {
			minCap = min(minCap, f.capLimit())
		}
		for left := len(flows); left > 0; {
			minShare := math.Inf(1)
			var bottleneck *link
			for _, l := range links {
				if l.share < minShare-allocEpsilon {
					minShare, bottleneck = l.share, l
				}
			}
			if bottleneck == nil {
				return
			}
			if minCap <= minShare+allocEpsilon {
				capped, kept := false, live[:0]
				minCap = math.Inf(1)
				for _, f := range live {
					switch c := f.capLimit(); {
					case f.fixMark == n.fillGen:
					case c <= minShare+allocEpsilon:
						fix(f, c)
						capped = true
						left--
					default:
						kept = append(kept, f)
						if m != minCapNotRecomputed {
							minCap = min(minCap, c)
						}
					}
				}
				if live = kept; capped {
					continue
				}
			}
			var batch []*Flow
			for _, f := range bottleneck.flows {
				if f.fixMark != n.fillGen || m == batchRefixes {
					batch = append(batch, f)
				}
			}
			if len(batch) == 0 {
				return
			}
			if m == batchReversed {
				slices.SortFunc(batch, func(a, b *Flow) int { return b.id - a.id })
			}
			for _, f := range batch {
				fix(f, minShare)
			}
			left -= len(batch)
		}
	}
}

// checkFill fills every component of n twice, each on a fill generation
// of its own — with fill, then with the reference — and requires
// Float64bits-identical pending rates. The components come from the
// reference walk, so only the fill's transient state (remaining,
// pendingRate, fill scratch) is touched: no rate is applied, no timer
// moves and the components stay as production left them, so it can run
// between any two events.
func checkFill(n *Network, fill fillFunc) error {
	var ref refRegion
	for _, nd := range n.nodes {
		ref.collect(nd.up)
		ref.collect(nd.down)
	}
	type pending struct {
		fixed bool
		rate  float64
	}
	n.fillGen++
	for _, c := range ref.bounds {
		fill(n, ref.links[c.l0:c.l1], ref.flows[c.f0:c.f1])
	}
	got := make([]pending, len(ref.flows))
	for i, f := range ref.flows {
		got[i] = pending{f.fixMark == n.fillGen, f.pendingRate}
	}
	n.fillGen++
	for _, c := range ref.bounds {
		refFillComponent(n, ref.links[c.l0:c.l1], ref.flows[c.f0:c.f1])
	}
	for i, f := range ref.flows {
		want := pending{f.fixMark == n.fillGen, f.pendingRate}
		if got[i].fixed != want.fixed || (want.fixed && math.Float64bits(got[i].rate) != math.Float64bits(want.rate)) {
			return fmt.Errorf("flow %d pending rate %x (%.9f, fixed=%v), reference %x (%.9f, fixed=%v)", f.id,
				math.Float64bits(got[i].rate), got[i].rate, got[i].fixed, math.Float64bits(want.rate), want.rate, want.fixed)
		}
	}
	return nil
}

// checkRegion requires the region production holds for a pass seeded at a
// and b — their components as join and leave left them, gathered by
// gatherRegion — to be the reference walk's from the same seeds: the same
// components, each with its links in ord order and its flows in ID order.
func checkRegion(n *Network, a, b *link) error {
	var ref refRegion
	ref.collect(a)
	ref.collect(b)
	if !slices.Equal(ref.bounds, n.compBounds) || !slices.Equal(ref.links, n.regionLinks) || !slices.Equal(ref.flows, n.regionFlows) {
		return fmt.Errorf("region differs from the reference: components %v, %d links, flows %v; reference %v, %d, %v",
			n.compBounds, len(n.regionLinks), flowIDs(n.regionFlows), ref.bounds, len(ref.links), flowIDs(ref.flows))
	}
	return nil
}

// gatherRegion lays out the components a pass at a and b fills in n's
// region scratch, one after another as the full pass's walk would: the
// incremental path fills them from their own lists and leaves that
// scratch to the full pass, so tests read a pass's region in one place
// whichever path ran it.
func gatherRegion(n *Network, a, b *link) {
	n.regionLinks, n.regionFlows, n.compBounds = n.regionLinks[:0], n.regionFlows[:0], n.compBounds[:0]
	comps := []*component{a.comp}
	if b.comp != a.comp {
		comps = append(comps, b.comp)
	}
	for _, c := range comps {
		l0, f0 := len(n.regionLinks), len(n.regionFlows)
		n.regionLinks, n.regionFlows = append(n.regionLinks, c.links...), append(n.regionFlows, c.flows...)
		n.compBounds = append(n.compBounds, compBound{l0: l0, l1: len(n.regionLinks), f0: f0, f1: len(n.regionFlows)})
	}
}

func flowIDs(fs []*Flow) []int {
	ids := make([]int, len(fs))
	for i, f := range fs {
		ids[i] = f.id
	}
	return ids
}

// checkComponents requires n's persistent components to be what a walk
// would find: each busy link's component is the reference walk's from it,
// links in ord order and flows in ID order, and every link the walk
// reaches points at it; no idle link points at a component, and no
// component a link points at is empty. The differential harness runs it
// after every engine event.
func checkComponents(n *Network) error {
	var ref refRegion
	for _, nd := range n.nodes {
		for _, l := range [2]*link{nd.up, nd.down} {
			if len(l.flows) == 0 && l.comp != nil {
				return fmt.Errorf("idle link ord %d points at a component of flows %v", l.ord, flowIDs(l.comp.flows))
			}
			ref.collect(l)
		}
	}
	for _, b := range ref.bounds {
		links, flows := ref.links[b.l0:b.l1], ref.flows[b.f0:b.f1]
		c := links[0].comp
		if c == nil {
			return fmt.Errorf("link ord %d carries flows %v but no component", links[0].ord, flowIDs(links[0].flows))
		}
		if !slices.Equal(links, c.links) || !slices.Equal(flows, c.flows) {
			return fmt.Errorf("link ord %d's component has links %v and flows %v; the walk from it finds %v and %v",
				links[0].ord, linkOrds(c.links), flowIDs(c.flows), linkOrds(links), flowIDs(flows))
		}
		for _, l := range links {
			if l.comp != c {
				return fmt.Errorf("link ord %d is in link ord %d's component but points at another", l.ord, links[0].ord)
			}
		}
	}
	return nil
}

func linkOrds(ls []*link) []int {
	ords := make([]int, len(ls))
	for i, l := range ls {
		ords[i] = l.ord
	}
	return ords
}

// regionMutant seeds one mistake in how the components follow the graph,
// by moving their state right after production moved it: member runs at
// the end of every join and leave, pass in every incremental pass once its
// region is gathered and checked, before the fill. Either may be nil.
type regionMutant struct {
	member func(n *Network, f *Flow, joined bool)
	pass   func(n *Network, a, b *link)
}

// watchRegion hooks every join, leave and incremental pass of n: the
// mutant's moves, then, in each pass, checkRegion on the region gathered
// from the components. The first failure is kept in the returned error and
// ends the watch: the mutant is dropped and the components are laid out
// afresh from the reference walk, so its damage stops there.
func watchRegion(n *Network, m regionMutant) *error {
	failed := new(error)
	if m.member != nil {
		n.memberHook = func(f *Flow, joined bool) { m.member(n, f, joined) }
	}
	n.passHook = func(a, b *link) {
		gatherRegion(n, a, b)
		if *failed = checkRegion(n, a, b); *failed != nil {
			n.passHook, n.memberHook = nil, nil
			rebuildComponents(n)
			return
		}
		if m.pass != nil {
			m.pass(n, a, b)
		}
	}
	return failed
}

// rebuildComponents lays out n's components afresh from the reference
// walk, in the order join and leave keep.
func rebuildComponents(n *Network) {
	var ref refRegion
	for _, nd := range n.nodes {
		nd.up.comp, nd.down.comp = nil, nil
		ref.collect(nd.up)
		ref.collect(nd.down)
	}
	for _, b := range ref.bounds {
		c := &component{links: slices.Clone(ref.links[b.l0:b.l1]), flows: slices.Clone(ref.flows[b.f0:b.f1])}
		for _, l := range c.links {
			l.comp = c
		}
	}
}

// starSwarm builds the component figures_paper spends its time in (ISSUE
// 20: 27 flows over 18 links, 6.3 fill rounds on average): a seeder and
// nine viewers on a star, every viewer downloading from the seeder and
// the first eight also uploading to two to four others. Delays and loss
// rates differ per node, so Mathis caps bind on some paths and links on
// others, and flow i starts at i·stagger, so under a stagger the flows sit
// at different slow-start stages. Viewer 1's uplink and viewer 2's
// downlink share a flow and offer the same share to within rounding: the
// near-tie that makes the link scan order visible in the rates. A size of
// 0 makes every flow unbounded.
func starSwarm(tb testing.TB, size int64, stagger time.Duration) (*sim.Engine, *Network) {
	tb.Helper()
	eng := sim.New(20)
	n := New(eng)
	for i := 0; i < 10; i++ {
		nc := NodeConfig{
			UplinkBytesPerSec:   int64(96+32*(i%3)) << 10,
			DownlinkBytesPerSec: 1 << 20,
			AccessDelay:         time.Duration(20+9*i) * time.Millisecond,
			LossRate:            float64(i%4) * 0.02,
		}
		switch i {
		case 0: // the seeder
			nc = NodeConfig{UplinkBytesPerSec: 2 << 20, DownlinkBytesPerSec: 2 << 20, AccessDelay: 5 * time.Millisecond}
		case 1: // four uploads, derated by 1.1: a share of 25600 but for rounding
			nc.UplinkBytesPerSec = 112640
		case 2: // three downloads, one of them from viewer 1: a share of 25600 exactly
			nc.DownlinkBytesPerSec = 76800
		}
		if _, err := n.AddNode(nc); err != nil {
			tb.Fatal(err)
		}
	}
	var pairs [][2]NodeID
	for v := 1; v <= 9; v++ {
		pairs = append(pairs, [2]NodeID{0, NodeID(v)})
	}
	for v := 1; v <= 8; v++ { // viewer 9 uploads nothing: 1 + 8 uplinks, 9 downlinks
		pairs = append(pairs, [2]NodeID{NodeID(v), NodeID(v%9 + 1)}, [2]NodeID{NodeID(v), NodeID((v+3)%9 + 1)})
	}
	pairs = append(pairs, [2]NodeID{1, 6}, [2]NodeID{1, 8})
	for i, p := range pairs {
		src, dst := p[0], p[1]
		eng.At(time.Duration(i)*stagger, func() {
			if _, err := n.StartTransfer(src, dst, size, TransferOptions{Unbounded: size == 0}, nil); err != nil {
				tb.Error(err)
			}
		})
	}
	return eng, n
}

// TestFillMatchesReferenceOnStar steps the star swarm event by event —
// staggered starts, ramps, RTO freezes, completions — checking the region
// of every pass and, after each event, the fill against the reference,
// and requires that the swarm really is the measured shape while it does.
func TestFillMatchesReferenceOnStar(t *testing.T) {
	eng, n := starSwarm(t, 3<<20, 40*time.Millisecond)
	regionErr := watchRegion(n, regionMutant{})
	peakFlows, peakLinks := 0, 0
	for events := 0; eng.Step(); events++ {
		if *regionErr != nil {
			t.Fatalf("event %d at %v: %v", events, eng.Now(), *regionErr)
		}
		if err := checkFill(n, (*Network).fillComponent); err != nil {
			t.Fatalf("event %d at %v: %v", events, eng.Now(), err)
		}
		if len(n.compBounds) == 1 && len(n.regionFlows) > peakFlows {
			peakFlows, peakLinks = len(n.regionFlows), len(n.regionLinks)
		}
	}
	if peakFlows != 27 || peakLinks != 18 {
		t.Errorf("largest single component was %d flows over %d links, want the measured 27 over 18", peakFlows, peakLinks)
	}
}

// TestFillReferenceCatchesOrderMutants proves the reference has teeth:
// each seeded fill mistake must be caught on the star swarm and in the
// randomized differential scripts. The mistakes the components invite
// are region_test.go's.
func TestFillReferenceCatchesOrderMutants(t *testing.T) {
	mutants := []struct {
		name string
		fill fillFunc
	}{
		{"capped flows fixed in reverse order", mutantCapsReversed},
		{"links scanned in reverse ord", mutantLinksReversed},
		{"bottleneck's walk refixing capped flows", mistakenFill(batchRefixes)},
		{"drained link's share left stale", mistakenFill(drainedShareStale)},
		{"cap scan skipped on a stale minCap", mistakenFill(minCapNotRecomputed)},
	}
	for _, m := range mutants {
		eng, n := starSwarm(t, 3<<20, 40*time.Millisecond)
		caught := false
		for !caught && eng.Step() {
			caught = checkFill(n, m.fill) != nil
		}
		if !caught {
			t.Errorf("star swarm did not catch the mutant: %s", m.name)
		}
		caught = false
		r := rand.New(rand.NewSource(20))
		for i := 0; i < 200 && !caught; i++ {
			caught = differentialScriptWith(randomScript(r, 40+r.Intn(200)), m.fill, regionMutant{}, nil) != nil
		}
		if !caught {
			t.Errorf("200 differential scripts did not catch the mutant: %s", m.name)
		}
	}
}

// TestBottleneckBatchOrderIsFree is the control for the round mistakes:
// the copy mistakenFill makes, with no mistake and with every bottleneck's
// flows fixed in descending ID order, must match the reference on the
// star swarm and in the differential scripts. The second is why
// fillComponent fixes a bottleneck's flows in its list's order.
func TestBottleneckBatchOrderIsFree(t *testing.T) {
	for _, m := range []roundMistake{0, batchReversed} {
		eng, n := starSwarm(t, 3<<20, 40*time.Millisecond)
		for eng.Step() {
			if err := checkFill(n, mistakenFill(m)); err != nil {
				t.Fatalf("round mistake %d, star swarm at %v: %v", m, eng.Now(), err)
			}
		}
		r := rand.New(rand.NewSource(20))
		for i := 0; i < 200; i++ {
			if err := differentialScriptWith(randomScript(r, 40+r.Intn(200)), mistakenFill(m), regionMutant{}, nil); err != nil {
				t.Fatalf("round mistake %d, differential script %d: %v", m, i, err)
			}
		}
	}
}

// TestFillAtEpsilonTies puts a round's two tests on their boundaries. On a
// star of five nodes, the seeder's uplink (three flows) and viewer 1's
// downlink (two) offer shares allocEpsilon/2 apart, so the bottleneck is
// the earlier link in ord order; and flow 0→2's cap is exactly that share
// plus allocEpsilon, so the cap test, not the bottleneck, fixes it. The
// fill must match the reference, and the capped flow must hold its cap.
func TestFillAtEpsilonTies(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	for i := 0; i < 5; i++ {
		addNode(t, n, 1<<20, 1<<20, 0, 0)
	}
	share := 25600.0
	n.nodes[0].up.capacity = 3 * share
	n.nodes[1].down.capacity = 2*share - allocEpsilon
	var flows []*Flow
	for _, p := range [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {4, 1}} {
		f, err := n.StartTransfer(p[0], p[1], 0, TransferOptions{Unbounded: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	eng.RunUntil(time.Millisecond)
	capped := flows[1]
	capped.rampCap = share + allocEpsilon
	if err := checkFill(n, (*Network).fillComponent); err != nil {
		t.Fatal(err)
	}
	if capped.pendingRate != share+allocEpsilon {
		t.Errorf("flow 0→2 with cap %.9f got %.9f, want its cap", share+allocEpsilon, capped.pendingRate)
	}
	if d := share - n.nodes[1].down.capacity/2; !(d > 0 && d < allocEpsilon) {
		t.Errorf("the two shares are %g apart, want within (0, allocEpsilon)", d)
	}
}

// TestReusedRegionFillsOnItsOwnGeneration is the mutant no reachable
// network catches: a pass that fills its components as they stand on the
// fill generation of the pass before, as it would if fillGen moved only
// with a walk, which no incremental pass makes. It shows only where a
// fill leaves a flow unfixed, and the fill fixes every flow of a
// component whose links have capacities — so the steady star gets
// infinite ones, under which no link ever bottlenecks. The pass then
// fixes nothing and must starve every flow, not hand each the rate the
// pass before fixed.
func TestReusedRegionFillsOnItsOwnGeneration(t *testing.T) {
	for _, seeded := range []bool{false, true} {
		eng, n := starSwarm(t, 1<<40, 0)
		eng.RunUntil(60 * time.Second)
		if seeded {
			watchRegion(n, regionMutant{pass: func(n *Network, _, _ *link) { n.fillGen-- }})
		}
		for _, nd := range n.nodes {
			nd.up.capacity, nd.down.capacity = math.Inf(1), math.Inf(1)
		}
		gen := n.allocGen
		n.reallocateOn(n.nodes[0].up, n.nodes[1].down)
		if n.allocGen != gen {
			t.Fatal("the pass over the unchanged star walked the graph")
		}
		stale := 0
		for _, f := range n.flows {
			if f.rate != 0 {
				stale++
			}
		}
		if caught := stale > 0; caught != seeded {
			t.Errorf("fill generation not advanced by the pass (seeded: %v): %d of %d flows kept a rate no fill of this pass fixed", seeded, stale, len(n.flows))
		}
	}
}
