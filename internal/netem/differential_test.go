package netem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/sim"
)

// The differential harness drives a pair of networks — one on the
// incremental reallocator, one forced through the reallocateFull oracle —
// through the same decoded event script, stepping both engines in
// lockstep and requiring every flow's state to be bit-identical after
// every single event. It is shared by TestQuickIncrementalMatchesFull
// (randomized scripts) and FuzzReallocate (fuzzer-mutated scripts). The
// two networks share the fill code and the canonical order, so the
// incremental one is also held to the test-only reference
// (fillref_test.go): its fill and components after every event, its
// region inside every pass.

// diffPair is the paired incremental/full network under test.
type diffPair struct {
	engA, engB *sim.Engine
	netA, netB *Network // A: incremental, B: full oracle
	flowsA     []*Flow  // every flow ever started, creation order
	flowsB     []*Flow
	ids        []int    // each start's flow ID: a handle whose Flow now has another is spent
	fill       fillFunc // what checkFill holds to the reference: fillComponent, or a mutant
	regionErr  *error   // the first region the incremental network's passes got wrong (watchRegion)
	obs        *remainingCheck
}

const (
	diffMaxNodes    = 8
	diffMaxStarts   = 30
	diffDrainBudget = 4000
)

// at schedules fn on both networks at virtual time t, each on its own
// engine, so a timed change reaches the pair as one engine event apiece.
func (p *diffPair) at(t time.Duration, fn func(*Network)) {
	p.engA.At(t, func() { fn(p.netA) })
	p.engB.At(t, func() { fn(p.netB) })
}

// decodeByte pulls the next script byte, treating exhaustion as zero so
// every prefix of a valid script is itself a valid script.
func decodeByte(data []byte, pos *int) byte {
	if *pos >= len(data) {
		return 0
	}
	b := data[*pos]
	*pos++
	return b
}

// differentialScript decodes data into a flow-event script, applies it to
// the pair, and returns an error on the first divergence or invariant
// violation. Script format: one seed byte and one node-count byte, four
// bytes of link parameters per node, then opcodes with inline operands.
func differentialScript(data []byte) error {
	return differentialScriptWith(data, (*Network).fillComponent, regionMutant{}, nil)
}

// differentialScriptWith is differentialScript with the fill that is
// checked against the reference named, and the incremental network's
// joins and leaves followed by region, so a test can seed a mutant of
// either. A
// non-nil obs observes the incremental network's flows; the full oracle
// stays unobserved.
func differentialScriptWith(data []byte, fill fillFunc, region regionMutant, obs *remainingCheck) error {
	pos := 0
	seed := int64(decodeByte(data, &pos))*256 + int64(decodeByte(data, &pos))
	nNodes := 2 + int(decodeByte(data, &pos))%(diffMaxNodes-1)

	p := &diffPair{engA: sim.New(seed), engB: sim.New(seed), fill: fill}
	p.netA = New(p.engA)
	p.netB = New(p.engB)
	p.netB.ForceFullReallocation(true)
	p.regionErr = watchRegion(p.netA, region)
	if p.obs = obs; obs != nil {
		obs.net = p.netA
		p.netA.SetFlowObserver(obs.observe)
	}

	for i := 0; i < nNodes; i++ {
		nc := NodeConfig{
			UplinkBytesPerSec:   20_000 + int64(decodeByte(data, &pos))*4_000,
			DownlinkBytesPerSec: 20_000 + int64(decodeByte(data, &pos))*4_000,
			AccessDelay:         time.Duration(decodeByte(data, &pos)%100) * time.Millisecond,
			LossRate:            float64(decodeByte(data, &pos)%8) / 100,
		}
		if _, err := p.netA.AddNode(nc); err != nil {
			return nil // invalid config: not a divergence
		}
		if _, err := p.netB.AddNode(nc); err != nil {
			return nil
		}
	}

	starts := 0
	for pos < len(data) {
		op := decodeByte(data, &pos)
		var err error
		switch op % 9 {
		case 0, 1, 2: // weight flow starts highest: they grow the graph
			if starts >= diffMaxStarts {
				break
			}
			starts++
			src := NodeID(int(decodeByte(data, &pos)) % nNodes)
			dst := NodeID(int(decodeByte(data, &pos)) % nNodes)
			b := decodeByte(data, &pos)
			size := 10_000 + int64(b)*20_000
			opts := TransferOptions{ReuseConnection: b&1 == 1, Unbounded: b%16 == 0}
			err = p.start(src, dst, size, opts)
		case 3: // run both engines k events forward, comparing each
			err = p.lockstep(1 + int(decodeByte(data, &pos))%48)
		case 4: // cancel a flow (completions come from lockstep instead)
			if len(p.flowsA) > 0 {
				i := int(decodeByte(data, &pos)) % len(p.flowsA)
				if p.live(i) {
					p.flowsA[i].Cancel()
					p.flowsB[i].Cancel()
				}
				err = p.compare("cancel")
			}
		case 5: // capacity change on a live link
			id := NodeID(int(decodeByte(data, &pos)) % nNodes)
			rate := int64(1+int(decodeByte(data, &pos))%64) * 16_384
			if decodeByte(data, &pos)&1 == 0 {
				_ = p.netA.SetUplink(id, rate)
				_ = p.netB.SetUplink(id, rate)
			} else {
				_ = p.netA.SetDownlink(id, rate)
				_ = p.netB.SetDownlink(id, rate)
			}
			err = p.compare("setlink")
		case 6: // administrative link down/up toggle
			id := NodeID(int(decodeByte(data, &pos)) % nNodes)
			down := !p.netA.LinkIsDown(id)
			_ = p.netA.SetLinkDown(id, down)
			_ = p.netB.SetLinkDown(id, down)
			err = p.compare("linkdown")
		case 7: // scheduled fault plan: a closed link-flap window plus a rate dip
			id := NodeID(int(decodeByte(data, &pos)) % nNodes)
			at := p.engA.Now() + time.Duration(1+int(decodeByte(data, &pos))%200)*50*time.Millisecond
			p.at(at, func(n *Network) { _ = n.SetLinkDown(id, true) })
			p.at(at+300*time.Millisecond, func(n *Network) { _ = n.SetLinkDown(id, false) })
			id2 := NodeID(int(decodeByte(data, &pos)) % nNodes)
			setRate := func(rate int64) func(*Network) {
				return func(n *Network) {
					_ = n.SetUplink(id2, rate)
					_ = n.SetDownlink(id2, rate)
				}
			}
			p.at(at, setRate(24_000))
			p.at(at+time.Second, setRate(256_000))
		case 8: // Gilbert–Elliott loss model install/clear (bursty loss)
			id := NodeID(int(decodeByte(data, &pos)) % nNodes)
			b := decodeByte(data, &pos)
			if b%5 == 0 {
				_ = p.netA.ClearGEModel(id)
				_ = p.netB.ClearGEModel(id)
			} else {
				gp := fault.GEModel{
					PGood: float64(b%8) / 100,
					PBad:  0.10 + float64(decodeByte(data, &pos)%30)/100,
					P13:   0.05 + float64(decodeByte(data, &pos)%20)/10,
					P31:   0.05 + float64(decodeByte(data, &pos)%20)/10,
				}
				_ = p.netA.SetGEModel(id, gp)
				_ = p.netB.SetGEModel(id, gp)
			}
			err = p.compare("gemodel")
		}
		if err != nil {
			return err
		}
	}

	// Clear loss models and cancel unbounded cross-traffic so the queues
	// can drain, then run to completion under a budget (hazard timers
	// stop with their flows; GE chains would reschedule forever).
	for i := 0; i < nNodes; i++ {
		_ = p.netA.ClearGEModel(NodeID(i))
		_ = p.netB.ClearGEModel(NodeID(i))
	}
	for i, f := range p.flowsA {
		if p.live(i) && math.IsInf(f.remaining, 1) {
			f.Cancel()
			p.flowsB[i].Cancel()
		}
	}
	if err := p.compare("final-cancel"); err != nil {
		return err
	}
	return p.lockstep(diffDrainBudget)
}

func (p *diffPair) start(src, dst NodeID, size int64, opts TransferOptions) error {
	fa, errA := p.netA.StartTransfer(src, dst, size, opts, nil)
	fb, errB := p.netB.StartTransfer(src, dst, size, opts, nil)
	if (errA == nil) != (errB == nil) {
		return fmt.Errorf("start divergence: incremental err=%v full err=%v", errA, errB)
	}
	if errA != nil {
		return nil // both rejected (self-transfer etc.): not a divergence
	}
	p.flowsA = append(p.flowsA, fa)
	p.flowsB = append(p.flowsB, fb)
	p.ids = append(p.ids, fa.id)
	return p.compare("start")
}

// live reports whether start i's handles are still valid: the Network
// reuses a Flow once its OnComplete or Cancel has returned, so a handle
// is spent once its Flow carries another transfer's ID. A finished flow
// not yet reused still holds its own; cancelling it is a no-op.
func (p *diffPair) live(i int) bool { return p.flowsA[i].id == p.ids[i] }

// lockstep fires up to k events on each engine, pairwise, comparing the
// networks after every event.
func (p *diffPair) lockstep(k int) error {
	for j := 0; j < k; j++ {
		okA := p.engA.Step()
		okB := p.engB.Step()
		if okA != okB {
			return fmt.Errorf("event-queue divergence: incremental stepped=%v full stepped=%v at %v", okA, okB, p.engA.Now())
		}
		if !okA {
			return nil
		}
		if err := p.compare("step"); err != nil {
			return err
		}
	}
	return nil
}

// compare asserts the paired networks are in bit-identical states: same
// virtual clock, same pending-event count, and for every flow the same
// state, freeze flag, and Float64bits-identical rate and remaining. It
// also checks conservation on the incremental network: the rates through
// any link must not exceed its concurrency-derated capacity, and that its
// fill and the regions of its passes since the last compare match the
// reference, and its components are the reference walk's.
func (p *diffPair) compare(where string) error {
	if *p.regionErr != nil {
		return fmt.Errorf("%s at %v: %w", where, p.engA.Now(), *p.regionErr)
	}
	if p.obs != nil && p.obs.err != nil {
		return fmt.Errorf("%s at %v: %w", where, p.engA.Now(), p.obs.err)
	}
	if p.engA.Now() != p.engB.Now() {
		return fmt.Errorf("%s: clock divergence: incremental %v full %v", where, p.engA.Now(), p.engB.Now())
	}
	if pa, pb := p.engA.Pending(), p.engB.Pending(); pa != pb {
		return fmt.Errorf("%s at %v: pending-event divergence: incremental %d full %d", where, p.engA.Now(), pa, pb)
	}
	for i, fa := range p.flowsA {
		fb := p.flowsB[i]
		if fa.id != fb.id {
			return fmt.Errorf("%s at %v: start %d's flow was reused unevenly: incremental now carries flow %d, full %d", where, p.engA.Now(), i, fa.id, fb.id)
		}
		if !p.live(i) {
			continue // compared as the start that reused it
		}
		if fa.state != fb.state || fa.frozen != fb.frozen {
			return fmt.Errorf("%s at %v: flow %d state divergence: incremental (%d frozen=%v) full (%d frozen=%v)",
				where, p.engA.Now(), fa.id, fa.state, fa.frozen, fb.state, fb.frozen)
		}
		if math.Float64bits(fa.rate) != math.Float64bits(fb.rate) {
			return fmt.Errorf("%s at %v: flow %d rate divergence: incremental %x (%.6f) full %x (%.6f)",
				where, p.engA.Now(), fa.id, math.Float64bits(fa.rate), fa.rate, math.Float64bits(fb.rate), fb.rate)
		}
		// Anchors are only load-bearing while accrual runs (positive rate,
		// finite remaining): stalled flows are re-anchored by the full pass
		// on every event but skipped by the incremental one, harmlessly —
		// at rate 0 the re-anchor is a no-op for every observable value.
		accruing := fa.rate > allocEpsilon && !math.IsInf(fa.anchorRemaining, 1)
		if accruing && (fa.anchorAt != fb.anchorAt || math.Float64bits(fa.anchorRemaining) != math.Float64bits(fb.anchorRemaining)) {
			return fmt.Errorf("%s at %v: flow %d anchor divergence: incremental (%v, %x) full (%v, %x)",
				where, p.engA.Now(), fa.id, fa.anchorAt, math.Float64bits(fa.anchorRemaining), fb.anchorAt, math.Float64bits(fb.anchorRemaining))
		}
		// Stored remaining is lazily advanced, so the two networks may have
		// observed it at different times; evaluate both at the current clock.
		ra, rb := effRemaining(fa, p.engA.Now()), effRemaining(fb, p.engB.Now())
		if math.Float64bits(ra) != math.Float64bits(rb) {
			return fmt.Errorf("%s at %v: flow %d remaining divergence: incremental %x full %x",
				where, p.engA.Now(), fa.id, math.Float64bits(ra), math.Float64bits(rb))
		}
	}
	if err := checkFill(p.netA, p.fill); err != nil {
		return fmt.Errorf("%s at %v: %w", where, p.engA.Now(), err)
	}
	if err := checkComponents(p.netA); err != nil {
		return fmt.Errorf("%s at %v: %w", where, p.engA.Now(), err)
	}
	return p.checkConservation(where)
}

// effRemaining mirrors Network.advance: remaining bytes evaluated at now
// from the flow's accrual anchor, without mutating the flow.
func effRemaining(f *Flow, now time.Duration) float64 {
	r := f.remaining
	if f.state == flowActive && now > f.anchorAt {
		r = f.anchorRemaining - f.rate*(now-f.anchorAt).Seconds()
		if r < 0 {
			r = 0
		}
	}
	return r
}

// checkConservation verifies that the sum of allocated rates through every
// link stays within its concurrency-derated effective capacity.
func (p *diffPair) checkConservation(where string) error {
	cfg := p.netA.model
	for _, nd := range p.netA.nodes {
		for _, l := range []*link{nd.up, nd.down} {
			var load float64
			for _, f := range l.flows {
				load += f.rate
			}
			excess := len(l.flows) - cfg.concurrencyFreeFlows
			if excess < 0 {
				excess = 0
			}
			eff := l.capacity / (1 + cfg.concurrencyPenalty*float64(excess))
			if load > eff*(1+1e-6)+allocEpsilon {
				return fmt.Errorf("%s at %v: link ord %d overloaded: load %.3f > derated capacity %.3f",
					where, p.engA.Now(), l.ord, load, eff)
			}
		}
	}
	return nil
}

// randomScript draws a script of the given length from r using the same
// byte format the fuzzer mutates.
func randomScript(r *rand.Rand, n int) []byte {
	data := make([]byte, n)
	r.Read(data)
	return data
}

// TestQuickIncrementalMatchesFull is the differential property: across
// ≥1000 randomized event scripts (transfer starts, completions, ramps,
// freezes, cancellations, capacity changes, administrative link flaps,
// scheduled fault plans, and Gilbert–Elliott loss-state transitions),
// the incremental reallocator and the reallocateFull oracle stay on
// bit-identical trajectories, compared after every single engine event.
func TestQuickIncrementalMatchesFull(t *testing.T) {
	count := 0
	f := func(seed int64) bool {
		count++
		r := rand.New(rand.NewSource(seed))
		data := randomScript(r, 40+r.Intn(200))
		if err := differentialScript(data); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1050}); err != nil {
		t.Error(err)
	}
	if count < 1000 {
		t.Fatalf("differential property ran only %d sequences, want >= 1000", count)
	}
}

// TestDifferentialCatchesBrokenIncremental proves the harness has teeth:
// a network whose incremental path deliberately skips reallocation after
// a capacity change must diverge from the oracle.
func TestDifferentialCatchesBrokenIncremental(t *testing.T) {
	eng := sim.New(7)
	n := New(eng)
	a, _ := n.AddNode(NodeConfig{UplinkBytesPerSec: 100_000, DownlinkBytesPerSec: 100_000})
	b, _ := n.AddNode(NodeConfig{UplinkBytesPerSec: 100_000, DownlinkBytesPerSec: 100_000})
	fl, err := n.StartTransfer(a, b, 1_000_000, TransferOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	// Sabotage: change capacity without marking anything dirty.
	n.nodes[b].down.capacity = 30_000
	n.nodes[b].cfg.DownlinkBytesPerSec = 30_000
	before := fl.rate
	n.reallocateFull()
	if math.Float64bits(before) == math.Float64bits(fl.rate) {
		t.Fatalf("oracle failed to catch a stale rate after an unmarked capacity change (rate %.1f)", fl.rate)
	}
}
