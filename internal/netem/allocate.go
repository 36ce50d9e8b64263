package netem

import (
	"math"
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
// rates — skipping it is exact, not approximate. The components persist
// across passes in canonical order (join, leave), so a pass fills them
// from their lists as they stand: no walk, no sort.
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
		return // no flow on either link: nothing to fill
	}
	if n.passHook != nil {
		n.passHook(a, b)
	}
	ca, cb := a.comp, b.comp
	n.fillGen++
	n.fillComponent(ca.links, ca.flows)
	n.stats.Components++
	n.stats.FlowsFilled += uint64(len(ca.flows))
	flows := ca.flows
	if cb != ca {
		n.fillComponent(cb.links, cb.flows)
		n.stats.Components++
		n.stats.FlowsFilled += uint64(len(cb.flows))
		n.mergedFlows = mergeSorted(append(n.mergedFlows[:0], ca.flows...), cb.flows)
		flows = n.mergedFlows
	}
	n.applyRates(flows)
}

// reallocateFull refills every connected component. It is the oracle the
// incremental path is differentially tested against: it walks the graph
// afresh and sorts each component into the canonical order the persistent
// components keep, then runs the same per-component progressive filling,
// so for any single component the two paths execute identical
// floating-point operations. The full pass simply never skips a clean
// component.
func (n *Network) reallocateFull() {
	n.stats.FullReallocs++
	n.allocGen++
	n.regionLinks, n.regionFlows, n.compBounds = n.regionLinks[:0], n.regionFlows[:0], n.compBounds[:0]
	for _, nd := range n.nodes {
		n.collectComponent(nd.up)
		n.collectComponent(nd.down)
	}
	n.fillRegion()
}

// collectComponent walks the flow/link sharing graph from seed and
// appends its connected component to the region, then orders the
// component's links by ord and flows by creation ID. A nil,
// already-collected, or flow-free seed contributes nothing. Marks are
// generation-stamped, so a new generation resets them in O(1).
//
//lint:hotpath component discovery on every full pass
func (n *Network) collectComponent(seed *link) {
	if seed == nil || seed.mark == n.allocGen || len(seed.flows) == 0 {
		return
	}
	l0, f0 := len(n.regionLinks), len(n.regionFlows)
	n.linkQueue = n.linkQueue[:0]
	n.collectLink(seed)
	for len(n.linkQueue) > 0 {
		l := n.linkQueue[len(n.linkQueue)-1]
		n.linkQueue = n.linkQueue[:len(n.linkQueue)-1]
		for _, f := range l.flows {
			if f.mark == n.allocGen {
				continue
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
	sortByKey(n.regionLinks[l0:])
	sortByKey(n.regionFlows[f0:])
	n.compBounds = append(n.compBounds, compBound{l0: l0, l1: len(n.regionLinks), f0: f0, f1: len(n.regionFlows)})
}

// collectLink marks l collected, queues it for the walk and appends it to
// the region.
//
//lint:hotpath once per link per collected component
func (n *Network) collectLink(l *link) {
	l.mark = n.allocGen
	n.linkQueue, n.regionLinks = append(n.linkQueue, l), append(n.regionLinks, l)
}

// fillRegion refills each collected component and applies the resulting
// rates in global flow-ID order. The apply order matters: rescheduled
// completion timers consume engine sequence numbers, which break FIFO
// ties among simultaneous events, so both reallocation paths must
// reschedule in the same order.
func (n *Network) fillRegion() {
	n.fillGen++
	for _, c := range n.compBounds {
		n.fillComponent(n.regionLinks[c.l0:c.l1], n.regionFlows[c.f0:c.f1])
	}
	n.stats.Components += uint64(len(n.compBounds))
	n.stats.FlowsFilled += uint64(len(n.regionFlows))
	if len(n.compBounds) > 1 {
		sortByKey(n.regionFlows)
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
