package netem

import (
	"math"
	"slices"
	"time"
)

// allocEpsilon absorbs floating-point noise when comparing rates.
const allocEpsilon = 1e-6

// AllocStats counts reallocation work. cmd/bench reports these as its
// netem.* counts (reallocs, components, flows_filled) and pins them, so a
// change to the allocator that moves one is visible as such.
type AllocStats struct {
	// Reallocs is the number of reallocation passes (each flow event that
	// changes the flow set, a cap, or a link triggers exactly one).
	Reallocs uint64
	// FullReallocs is the number of passes that refilled every component
	// (the ForceFullReallocation oracle mode; the incremental path never
	// widens beyond the dirty components, so outside that mode this stays
	// zero).
	FullReallocs uint64
	// Components is the number of connected components progressively
	// filled across all passes.
	Components uint64
	// FlowsFilled is the number of flow rates recomputed across all
	// passes — the incremental path's unit of work. Under full
	// reallocation this grows by the whole active flow count per event.
	FlowsFilled uint64
}

// AllocStats returns the cumulative reallocation counters.
func (n *Network) AllocStats() AllocStats { return n.stats }

// ForceFullReallocation switches the network between the incremental
// reallocator (default) and the full per-event recompute. The full mode
// is the test oracle: the differential and fuzz tests drive paired
// networks through identical event scripts and assert every flow rate is
// bit-identical between the two modes. It is also the baseline the
// incremental path's netem.* counts in cmd/bench are read against.
func (n *Network) ForceFullReallocation(on bool) { n.forceFull = on }

// compBound delimits one connected component inside the region scratch
// slices: links [l0:l1) and flows [f0:f1).
type compBound struct {
	l0, l1, f0, f1 int
}

// reallocateOn recomputes max-min fair rates after a flow event whose
// direct effect is confined to links a and b (either may be nil). Only
// the connected components of the flow/link sharing graph that contain a
// dirty link are refilled: progressive filling is a pure function of a
// component's link capacities, per-link flow counts, and flow caps, so a
// component none of whose inputs changed would refill to bit-identical
// rates — skipping it is exact, not approximate. When the dirty
// components span the whole star this degenerates to the full recompute.
//
// The region outlives its pass as a one-entry cache: while no flow has
// joined or left a link since it was collected as one component and the
// dirty links lie in it, the walk would rebuild it as it stands.
func (n *Network) reallocateOn(a, b *link) {
	n.stats.Reallocs++
	if n.forceFull {
		n.reallocateFull()
		return
	}
	if a == nil || len(a.flows) == 0 {
		a = b
	}
	if b == nil || len(b.flows) == 0 {
		b = a
	}
	if a == nil || len(a.flows) == 0 {
		return // no flow on either link: an empty region
	}
	if n.passHook != nil {
		n.passHook(a, b, false)
	}
	if n.regionGen != n.graphGen || a.mark != n.allocGen || b.mark != n.allocGen {
		n.beginRegion()
		n.collectComponent(a, n.prevGen != 0)
		n.collectComponent(b, false)
		n.regionGen = 0
		if len(n.compBounds) == 1 {
			n.regionGen = n.graphGen
		}
	}
	if n.passHook != nil {
		n.passHook(a, b, true)
	}
	n.fillRegion()
}

// reallocateFull refills every connected component. It is the oracle the
// incremental path is differentially tested against: both run the same
// per-component progressive filling in the same canonical order, so for
// any single component the two paths execute identical floating-point
// operations. The full pass simply never skips a clean component (and
// neither reads nor leaves a cached region).
func (n *Network) reallocateFull() {
	n.stats.FullReallocs++
	n.beginRegion()
	for _, nd := range n.nodes {
		n.collectComponent(nd.up, false)
		n.collectComponent(nd.down, false)
	}
	n.regionGen = 0
	n.fillRegion()
}

// beginRegion starts a new collection generation and region. The region
// just left becomes the previous one, its members marked prevGen, if it
// can order the next: one component, large enough to sweep. Otherwise the
// previous one stays: a pass over some small component does not evict it.
// Generation-stamped marks make resets O(1): stale marks never compare equal.
//
//lint:hotpath region setup on every flow event; the paired AllocsPerRun test and BenchmarkHotpathReallocate assert 0 allocs/op in steady state
func (n *Network) beginRegion() {
	if n.regionGen != 0 && len(n.regionFlows) >= filterMinFlows {
		n.regionLinks, n.prevLinks = n.prevLinks, n.regionLinks
		n.regionFlows, n.prevFlows = n.prevFlows, n.regionFlows
		n.prevGen = n.allocGen
	}
	n.allocGen++
	n.regionLinks, n.regionFlows, n.compBounds = n.regionLinks[:0], n.regionFlows[:0], n.compBounds[:0]
}

// collectComponent walks the flow/link sharing graph from seed and
// appends its connected component to the region, then orders the
// component's links by ord and flows by creation ID. The order makes the
// component's fill order canonical — independent of which dirty link the
// walk entered through — which is what makes the incremental path
// bit-identical to the full recompute. A nil, already-collected, or
// flow-free seed contributes nothing.
//
// With prevOrdered — there is a previous region: one component, hence in
// canonical order — the members it held need no sorting: one sweep over
// it, merging in the sorted few it did not hold (mark not prevGen), yields
// the same sequence. Not below filterMinFlows, where slices.Sort is a
// short insertion sort, nor against a much larger previous region.
//
//lint:hotpath dirty-component discovery on every flow event
func (n *Network) collectComponent(seed *link, prevOrdered bool) {
	if seed == nil || seed.mark == n.allocGen || len(seed.flows) == 0 {
		return
	}
	l0, f0 := len(n.regionLinks), len(n.regionFlows)
	n.linkQueue, n.freshLinks, n.freshFlows = n.linkQueue[:0], n.freshLinks[:0], n.freshFlows[:0]
	n.collectLink(seed)
	for len(n.linkQueue) > 0 {
		l := n.linkQueue[len(n.linkQueue)-1]
		n.linkQueue = n.linkQueue[:len(n.linkQueue)-1]
		for _, f := range l.flows {
			if f.mark == n.allocGen {
				continue
			}
			if f.mark != n.prevGen {
				n.freshFlows = append(n.freshFlows, f)
			}
			f.mark = n.allocGen
			n.regionFlows = append(n.regionFlows, f)
			if f.lup.mark != n.allocGen {
				n.collectLink(f.lup)
			}
			if f.ldown.mark != n.allocGen {
				n.collectLink(f.ldown)
			}
		}
	}
	links, flows := n.regionLinks[l0:], n.regionFlows[f0:]
	if len(n.freshLinks) < len(links) || len(n.freshFlows) < len(flows) {
		n.prevGen = 0 // re-marked members of the previous region: it is no more, once it has ordered this component
	}
	if prevOrdered && len(flows) >= filterMinFlows && len(n.prevFlows) <= 2*len(flows) {
		n.orderLinks(n.freshLinks)
		n.orderFlows(n.freshFlows)
		mergeLinks(links, n.prevLinks, n.freshLinks, n.allocGen)
		mergeFlows(flows, n.prevFlows, n.freshFlows, n.allocGen)
	} else {
		n.orderLinks(links)
		n.orderFlows(flows)
	}
	n.compBounds = append(n.compBounds, compBound{l0: l0, l1: len(n.regionLinks), f0: f0, f1: len(n.regionFlows)})
}

const filterMinFlows = 12

// collectLink marks l collected, queues it for the walk and appends it to
// the region, and to the fresh links if the previous region did not hold it.
//
//lint:hotpath once per link per collected component
func (n *Network) collectLink(l *link) {
	if l.mark != n.prevGen {
		n.freshLinks = append(n.freshLinks, l)
	}
	l.mark = n.allocGen
	n.linkQueue, n.regionLinks = append(n.linkQueue, l), append(n.regionLinks, l)
}

// mergeLinks overwrites dst, a component as walked, with its links in ord
// order: those of prev marked gen, as ordered there, merged with fresh,
// the component's other links, sorted.
//
//lint:hotpath canonical link order by one sweep over the previous region
func mergeLinks(dst, prev, fresh []*link, gen uint64) {
	k := 0
	for _, l := range prev {
		if l.mark != gen {
			continue // left the component
		}
		for ; len(fresh) > 0 && fresh[0].ord < l.ord; k++ {
			dst[k], fresh = fresh[0], fresh[1:]
		}
		dst[k] = l
		k++
	}
	copy(dst[k:], fresh)
}

// mergeFlows is mergeLinks for flows, in ID order. A flow that left in
// this pass is still in prev; its stale mark skips it before its ID is
// read. No flow released before this pass is, so prev cannot meet a
// reused Flow under its new ID and emit it twice: while prev orders walks
// (prevGen != 0) no flow has joined or left one of its links, since such
// a change runs a pass on a link of prev that holds a flow, and that pass
// re-marks the link, which ends prev. watchRegion asserts it.
//
//lint:hotpath canonical flow order by one sweep over the previous region
func mergeFlows(dst, prev, fresh []*Flow, gen uint64) {
	k := 0
	for _, f := range prev {
		if f.mark != gen {
			continue
		}
		for ; len(fresh) > 0 && fresh[0].id < f.id; k++ {
			dst[k], fresh = fresh[0], fresh[1:]
		}
		dst[k] = f
		k++
	}
	copy(dst[k:], fresh)
}

// fillRegion refills each collected component and applies the resulting
// rates in global flow-ID order. The apply order matters: rescheduled
// completion timers consume engine sequence numbers, which break FIFO
// ties among simultaneous events, so both reallocation paths must
// reschedule in the same order. A region of one component is in that
// order as collected.
func (n *Network) fillRegion() {
	n.fillGen++
	for _, c := range n.compBounds {
		n.fillComponent(n.regionLinks[c.l0:c.l1], n.regionFlows[c.f0:c.f1])
	}
	n.stats.Components += uint64(len(n.compBounds))
	n.stats.FlowsFilled += uint64(len(n.regionFlows))
	if len(n.compBounds) > 1 {
		n.orderFlows(n.regionFlows)
	}
	n.applyRates(n.regionFlows)
}

// fillComponent runs progressive filling (max-min fairness) over one
// connected component: links sorted by ord, flows sorted by creation ID.
// Each round finds the minimum per-flow share among unsaturated links;
// flows whose own cap (slow-start ramp, Mathis loss bound, freezes, down
// links) is below that share are rate-limited by the cap, not the
// network, so they are fixed first and the round repeats; otherwise the
// bottleneck link saturates and its flows get the fair share. Many
// concurrent flows through one shaped link waste capacity on
// retransmissions and synchronized loss, so each link's effective
// capacity is derated by its concurrency before filling.
//
// A round costs one scan of the links plus the flows it fixes. Each
// link's share is kept current by fixFlow (+Inf once it has no unfixed
// flow, so it never bottlenecks). A flow's cap, constant within a pass,
// is read once into caps; live indexes the flows not yet fixed by a cap
// and is scanned, in ID order, only in a round whose share reaches
// minCap, the smallest cap in it. A bottleneck's flows are fixed from its
// own list. That list is swap-removed, not in ID order, but every flow it
// fixes gets the same minShare, so each link is charged the same value
// the same number of times in any order: the bits do not depend on it.
//
//lint:hotpath the incremental reallocator's inner loop; runs once per dirty component per flow event
func (n *Network) fillComponent(links []*link, flows []*Flow) {
	for _, l := range links {
		excess := max(len(l.flows)-n.model.concurrencyFreeFlows, 0)
		l.remaining = l.capacity / (1 + n.model.concurrencyPenalty*float64(excess))
		l.unfixed = len(l.flows)
		l.share = l.remaining / float64(l.unfixed)
	}
	live, caps, minCap := n.liveFlows[:0], n.flowCaps[:0], math.Inf(1)
	for i, f := range flows {
		c := f.capLimit()
		live, caps, minCap = append(live, int32(i)), append(caps, c), min(minCap, c)
	}
	n.liveFlows, n.flowCaps = live, caps
	for left := len(flows); left > 0; {
		minShare := math.Inf(1)
		var bottleneck *link
		for _, l := range links {
			if l.share < minShare-allocEpsilon {
				minShare, bottleneck = l.share, l
			}
		}
		if bottleneck == nil {
			// No unfixed flow traverses any link; nothing left to do.
			break
		}
		if minCap <= minShare+allocEpsilon {
			capped, kept := false, 0
			minCap = math.Inf(1)
			for _, fi := range live {
				switch f, c := flows[fi], caps[fi]; {
				case f.fixMark == n.fillGen: // fixed at a bottleneck
				case c <= minShare+allocEpsilon:
					n.fixFlow(f, c)
					capped = true
					left--
				default:
					live[kept] = fi
					kept++
					minCap = min(minCap, c)
				}
			}
			live = live[:kept]
			if capped {
				continue
			}
		}
		for _, f := range bottleneck.flows {
			if f.fixMark != n.fillGen {
				n.fixFlow(f, minShare)
				left--
			}
		}
	}
}

// fixFlow pins f's rate for this pass and charges it to both links,
// whose shares it brings up to date.
//
//lint:hotpath called once per flow per fill
func (n *Network) fixFlow(f *Flow, rate float64) {
	f.fixMark = n.fillGen
	f.pendingRate = rate
	f.lup.charge(rate)
	f.ldown.charge(rate)
}

// charge takes one fixed flow's rate off l and recomputes its share.
func (l *link) charge(rate float64) {
	l.remaining -= rate
	if l.remaining < 0 {
		l.remaining = 0
	}
	l.unfixed--
	l.share = math.Inf(1)
	if l.unfixed > 0 {
		l.share = l.remaining / float64(l.unfixed)
	}
}

// applyRates installs the computed rates and re-arms completion events.
// Flows whose rate is unchanged (within epsilon) keep their existing
// completion timer, so clean refills consume no engine sequence numbers —
// the property that lets the full oracle and the incremental path stay on
// identical trajectories. A flow whose rate changes is advanced to now
// under its old rate, then re-anchored there; one whose rate does not is
// left alone, since its anchor already gives its progress at any instant.
// A Flow makes its completion Timer once and re-arms that same handle for
// every transfer it carries.
func (n *Network) applyRates(flows []*Flow) {
	for _, f := range flows {
		rate := 0.0
		if f.fixMark == n.fillGen {
			rate = f.pendingRate
		}
		if math.Abs(rate-f.rate) <= allocEpsilon*max(1, f.rate) && f.completion != nil && !f.completion.Cancelled() {
			continue // unchanged; keep the existing completion event
		}
		n.advance(f)
		f.rate = rate
		f.anchorAt = n.eng.Now()
		f.anchorRemaining = f.remaining
		// Unbounded cross-traffic never completes; a starved flow waits
		// for a later reallocation to revive it.
		if math.IsInf(f.remaining, 1) || rate <= allocEpsilon {
			f.completion.Cancel()
			continue
		}
		n.arm(&f.completion, seconds(f.remaining/rate), f.completeFn)
	}
}

// seconds converts s seconds to a Duration, saturating past the largest
// one instead of wrapping: a huge transfer over a slow link completes
// at the end of virtual time, not in the past.
func seconds(s float64) time.Duration {
	if ns := s * float64(time.Second); ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// orderLinks puts ls in creation order (node ID, uplink before downlink)
// by sorting the ords as integers: an ord names its link, so no pointer
// moves until the sorted ords are read back.
//
//lint:hotpath canonical link ordering for every collected component
func (n *Network) orderLinks(ls []*link) {
	keys := n.sortKeys[:0]
	for _, l := range ls {
		keys = append(keys, uint64(l.ord))
	}
	slices.Sort(keys)
	for i, k := range keys {
		if nd := n.nodes[k>>1]; k&1 == 0 {
			ls[i] = nd.up
		} else {
			ls[i] = nd.down
		}
	}
	n.sortKeys = keys
}

// orderFlows puts fs in creation-ID order. Each key is a flow's ID over
// its position in fs (StartTransfer keeps IDs below 2³²), so sorting the
// integers sorts the flows, and one gather through a scratch copy of fs
// places them. IDs are unique, so the result is deterministic.
//
//lint:hotpath canonical flow ordering for every collected component and the multi-component apply pass
func (n *Network) orderFlows(fs []*Flow) {
	keys := n.sortKeys[:0]
	for i, f := range fs {
		keys = append(keys, uint64(f.id)<<32|uint64(i))
	}
	slices.Sort(keys)
	n.flowGather = append(n.flowGather[:0], fs...)
	for i, k := range keys {
		fs[i] = n.flowGather[uint32(k)]
	}
	n.sortKeys = keys
}
