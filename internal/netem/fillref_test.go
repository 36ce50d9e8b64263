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
// that share collectComponent and fillComponent, so it cannot see a
// mistake inside either. The code below is the straightforward form of
// both — pointer heapsorts for the canonical order, a progressive fill
// that rescans the whole component every round — kept test-only as the
// oracle the production forms must match to the bit. checkFill runs after
// every event of every differential script (differential_test.go) and of
// the star swarm below.

// refRegion is the reference region discovery: the same walk as
// collectComponent, ordered by heapsorting the pointer slices.
type refRegion struct {
	links  []*link
	flows  []*Flow
	bounds []compBound
}

func (r *refRegion) collect(n *Network, seed *link) {
	if seed == nil || seed.mark == n.allocGen || len(seed.flows) == 0 {
		return
	}
	l0, f0 := len(r.links), len(r.flows)
	seed.mark = n.allocGen
	queue := []*link{seed}
	r.links = append(r.links, seed)
	for len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, f := range l.flows {
			if f.mark == n.allocGen {
				continue
			}
			f.mark = n.allocGen
			r.flows = append(r.flows, f)
			for _, fl := range []*link{f.lup, f.ldown} {
				if fl.mark != n.allocGen {
					fl.mark = n.allocGen
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
			if f.fixMark == n.allocGen {
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
			if f.fixMark == n.allocGen {
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

// checkFill collects and fills every component of n twice — the
// production collectComponent with fill, then the reference pair on a
// fresh generation — and requires the same region in the same order and
// Float64bits-identical pending rates. It only touches the allocator's
// transient state (marks, remaining, pendingRate, scratch): no rate is
// applied and no timer moves, so it can run between any two events.
func checkFill(n *Network, fill fillFunc) error {
	n.beginRegion()
	for _, nd := range n.nodes {
		n.collectComponent(nd.up)
		n.collectComponent(nd.down)
	}
	for _, c := range n.compBounds {
		fill(n, n.regionLinks[c.l0:c.l1], n.regionFlows[c.f0:c.f1])
	}
	type pending struct {
		fixed bool
		rate  float64
	}
	got := make([]pending, len(n.regionFlows))
	for i, f := range n.regionFlows {
		got[i] = pending{f.fixMark == n.allocGen, f.pendingRate}
	}

	n.allocGen++
	var ref refRegion
	for _, nd := range n.nodes {
		ref.collect(n, nd.up)
		ref.collect(n, nd.down)
	}
	if !slices.Equal(ref.bounds, n.compBounds) || !slices.Equal(ref.links, n.regionLinks) || !slices.Equal(ref.flows, n.regionFlows) {
		return fmt.Errorf("region order differs from the reference: %d/%d/%d components/links/flows, reference %d/%d/%d",
			len(n.compBounds), len(n.regionLinks), len(n.regionFlows), len(ref.bounds), len(ref.links), len(ref.flows))
	}
	for _, c := range ref.bounds {
		refFillComponent(n, ref.links[c.l0:c.l1], ref.flows[c.f0:c.f1])
	}
	for i, f := range ref.flows {
		want := pending{f.fixMark == n.allocGen, f.pendingRate}
		if got[i].fixed != want.fixed || (want.fixed && math.Float64bits(got[i].rate) != math.Float64bits(want.rate)) {
			return fmt.Errorf("flow %d pending rate %x (%.9f, fixed=%v), reference %x (%.9f, fixed=%v)", f.id,
				math.Float64bits(got[i].rate), got[i].rate, got[i].fixed, math.Float64bits(want.rate), want.rate, want.fixed)
		}
	}
	return nil
}

// starSwarm builds the component figures_paper spends its time in (ISSUE
// 20: 27 flows over 18 links, 6.3 fill rounds on average): a seeder and
// nine viewers on a star, every viewer downloading from the seeder and
// the first eight also uploading to two to four others. Delays and loss
// rates differ per node, so Mathis caps bind on some paths and links on
// others, and flow i starts at i·stagger, so under a stagger the flows sit
// at different slow-start stages. Viewer 1's uplink and viewer 2's
// downlink share a flow and offer the same share to within rounding: the
// near-tie that makes the link scan order visible in the rates.
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
			if _, err := n.StartTransfer(src, dst, size, TransferOptions{}, nil); err != nil {
				tb.Error(err)
			}
		})
	}
	return eng, n
}

// TestFillMatchesReferenceOnStar steps the star swarm event by event —
// staggered starts, ramps, RTO freezes, completions — checking the fill
// against the reference after each, and requires that the swarm really is
// the measured shape while it does.
func TestFillMatchesReferenceOnStar(t *testing.T) {
	eng, n := starSwarm(t, 3<<20, 40*time.Millisecond)
	peakFlows, peakLinks := 0, 0
	for events := 0; eng.Step(); events++ {
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
// each seeded ordering mistake must be caught on the star swarm and by
// the randomized differential scripts.
func TestFillReferenceCatchesOrderMutants(t *testing.T) {
	mutants := map[string]fillFunc{
		"capped flows fixed in reverse order": mutantCapsReversed,
		"links scanned in reverse ord":        mutantLinksReversed,
	}
	for name, mutant := range mutants {
		eng, n := starSwarm(t, 3<<20, 40*time.Millisecond)
		caught := false
		for !caught && eng.Step() {
			caught = checkFill(n, mutant) != nil
		}
		if !caught {
			t.Errorf("star swarm did not catch the mutant: %s", name)
		}
		caught = false
		r := rand.New(rand.NewSource(20))
		for i := 0; i < 200 && !caught; i++ {
			caught = differentialScriptFill(randomScript(r, 40+r.Intn(200)), mutant) != nil
		}
		if !caught {
			t.Errorf("200 differential scripts did not catch the mutant: %s", name)
		}
	}
}
