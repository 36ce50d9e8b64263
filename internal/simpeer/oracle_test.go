package simpeer

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/splicer"
)

// The reference picker: source selection as a full scan over the swarm's
// own state — every wanted segment × every peer × the full eligibility
// predicate in two passes, defaults resolved per call, no source set, no
// frontier. It shares nothing with internal/core's scheduler but the
// fields it reads, and is the differential oracle for every selection
// core.Window makes for the emulation (the way netem keeps
// reallocateFull; unlike reallocateFull it is test-only).

func refUploadSlots(s *swarm) int {
	switch {
	case s.cfg.MaxUploadsPerPeer > 0:
		return s.cfg.MaxUploadsPerPeer
	case s.cfg.MaxUploadsPerPeer < 0:
		return 0
	default:
		return 4
	}
}

func refSourceProgress(s *swarm, q *peerState, idx int) float64 {
	if q.advKind == fault.AdvStaleHave || q.advKind == fault.AdvSlowloris {
		return 1
	}
	if q.src.Have[idx] {
		return 1
	}
	if s.cfg.DisableRelay || q.isSeeder {
		return -1
	}
	d := q.inFlight[idx]
	if d.flow == nil {
		return -1
	}
	size := d.flow.Size()
	if size <= 0 {
		return -1
	}
	progress := 1 - float64(d.flow.Remaining())/float64(size)
	if progress < relayThreshold {
		return -1
	}
	return progress
}

func refEligible(s *swarm, p, q *peerState, idx int, allowQuarantined bool) bool {
	if q == p || q.departed || q.crashed || s.net.LinkIsDown(q.node) {
		return false
	}
	if !allowQuarantined && s.rep != nil && s.rep.Quarantined(q.id, s.eng.Now()) {
		return false
	}
	if refSourceProgress(s, q, idx) < 0 {
		return false
	}
	if cap := refUploadSlots(s); cap > 0 && q.src.Uploads >= cap {
		return false
	}
	return q.src.Sending[idx] == 0
}

func refPickSource(s *swarm, p *peerState, idx int) *peerState {
	if src := refPickSourceFrom(s, p, idx, false); src != nil {
		return src
	}
	if s.cdn != nil && refCDNEligible(p) {
		return s.cdn
	}
	if s.rep != nil {
		return refPickSourceFrom(s, p, idx, true)
	}
	return nil
}

func refPickSourceFrom(s *swarm, p *peerState, idx int, allowQuarantined bool) *peerState {
	if p.lastSrc != nil {
		if last := p.lastSrc.Owner.(*peerState); !last.isCDN && refEligible(s, p, last, idx, allowQuarantined) {
			return last
		}
	}
	var best *peerState
	var bestProgress float64
	for _, q := range s.peers {
		if !refEligible(s, p, q, idx, allowQuarantined) {
			continue
		}
		progress := refSourceProgress(s, q, idx)
		if best == nil || q.src.Uploads < best.src.Uploads ||
			(q.src.Uploads == best.src.Uploads && progress > bestProgress) {
			best, bestProgress = q, progress
		}
	}
	return best
}

func refCDNEligible(p *peerState) bool {
	for _, d := range p.inFlight {
		if d.src != nil && d.src.isCDN {
			return false
		}
	}
	return true
}

// oracleStats counts what the differential run exercised, so the test can
// prove it was not vacuous.
type oracleStats struct {
	picks, launches, cuts        int
	relays, cdn, liars, pastEdge int
	escapeHatch                  int
}

// attachOracle hangs the reference picker on every selection the swarm's
// fills make. A scan cut at the frontier must be a state where the
// reference finds no source for that segment or any later one (so both
// scans end with blocked set); every other selection must be the
// reference's. Each check also asserts the frontier invariant.
func attachOracle(sw *swarm, st *oracleStats, fail func(format string, args ...any)) {
	name := func(q *peerState) string {
		if q == nil {
			return "none"
		}
		return fmt.Sprintf("peer%d", q.id)
	}
	sw.pickCheck = func(p *peerState, idx int, from *core.Source, beyond bool) {
		var src *peerState
		if from != nil {
			src = from.Owner.(*peerState)
		}
		now := sw.eng.Now()
		// Frontier invariant: past the high-water mark no leecher — crashed,
		// departed and adversarial ones included — holds or fetches anything.
		for _, q := range sw.peers[1:] {
			for j := sw.frontier + 1; j < len(sw.segs); j++ {
				if q.src.Have[j] || q.inFlight[j].src != nil {
					fail("t=%v: peer%d has or fetches seg%d past the frontier %d", now, q.id, j, sw.frontier)
				}
			}
		}
		if !p.pool.Wanted(idx) {
			fail("t=%v: peer%d selecting for unwanted seg%d", now, p.id, idx)
		}
		checkRoster(sw, func(format string, args ...any) { fail("t=%v: "+format, append([]any{now}, args...)...) })
		st.picks++
		if beyond {
			st.cuts++
			for j := idx; j < len(sw.segs); j++ {
				if !p.pool.Wanted(j) {
					fail("t=%v: peer%d does not want seg%d past the frontier %d", now, p.id, j, sw.frontier)
				}
				if ref := refPickSource(sw, p, j); ref != nil {
					fail("t=%v: peer%d scan cut at seg%d (frontier %d) but the reference serves seg%d from %s",
						now, p.id, idx, sw.frontier, j, name(ref))
				}
			}
			return
		}
		ref := refPickSource(sw, p, idx)
		if ref != src {
			fail("t=%v: peer%d seg%d: picked %s, reference picks %s", now, p.id, idx, name(src), name(ref))
		}
		if src == nil {
			return
		}
		st.launches++
		switch {
		case src.isCDN:
			st.cdn++
		case src.advKind == fault.AdvStaleHave || src.advKind == fault.AdvSlowloris:
			st.liars++
		case !src.src.Have[idx]:
			st.relays++
		}
		if idx > sw.frontier {
			st.pastEdge++
		}
		if sw.rep != nil && !src.isCDN && sw.rep.Quarantined(src.id, now) {
			st.escapeHatch++
		}
	}
}

// checkRoster recomputes every peer's roster bits from its state with the
// predicates a per-fill scan would apply, and reports any bit the events
// left stale: holding or fetching each segment, below the upload cap,
// present (not departed, crashed or cut off) and claiming the whole clip.
func checkRoster(sw *swarm, fail func(format string, args ...any)) {
	cap := refUploadSlots(sw)
	for _, q := range sw.peers {
		_, open, present, whole := sw.roster.Bits(q.id, 0)
		if want := cap == 0 || q.src.Uploads < cap; open != want {
			fail("peer%d: roster open %v, uploads %d of %d", q.id, open, q.src.Uploads, cap)
		}
		if want := !q.departed && !q.crashed && !sw.net.LinkIsDown(q.node); present != want {
			fail("peer%d: roster present %v, departed %v crashed %v link down %v",
				q.id, present, q.departed, q.crashed, sw.net.LinkIsDown(q.node))
		}
		if whole != q.src.WholeClip {
			fail("peer%d: roster whole %v, src.WholeClip %v", q.id, whole, q.src.WholeClip)
		}
		for idx := range sw.segs {
			hold, _, _, _ := sw.roster.Bits(q.id, idx)
			fetching := q.pool.Fetching != nil && q.pool.Fetching[idx]
			if want := q.src.Have[idx] || fetching; hold != want {
				fail("peer%d seg%d: roster hold %v, have %v fetching %v", q.id, idx, hold, q.src.Have[idx], fetching)
			}
		}
	}
}

// scenario is one generated swarm for the differential test.
type scenario struct {
	cfg  SwarmConfig
	desc string
}

// Generate implements quick.Generator: seeds × {sequential, rarest-first}
// × relay on/off × CDN on/off × churn × fault plans (crash/rejoin, seeder
// outage, link flap, corruption) × the four adversary kinds × reputation
// on/off × upload caps.
func (scenario) Generate(r *rand.Rand, _ int) reflect.Value {
	leechers := 3 + r.Intn(6)
	cfg := baseConfig(int64(96+r.Intn(4)*64) * 1024)
	cfg.Seed = r.Int63n(1 << 30)
	cfg.Leechers = leechers
	cfg.JoinSpread = time.Duration(r.Intn(6)) * time.Second
	cfg.MaxUploadsPerPeer = []int{0, 0, 1, 2, -1}[r.Intn(5)]
	desc := fmt.Sprintf("seed=%d leechers=%d bw=%d spread=%v cap=%d",
		cfg.Seed, leechers, cfg.BandwidthBytesPerSec, cfg.JoinSpread, cfg.MaxUploadsPerPeer)
	flag := func(name string, on bool) bool {
		if on {
			desc += " " + name
		}
		return on
	}
	if flag("rarest", r.Intn(3) == 0) {
		cfg.Selection = SelectRarestFirst
	}
	cfg.DisableRelay = flag("norelay", r.Intn(4) == 0)
	if flag("cdn", r.Intn(3) == 0) {
		cfg.CDN = &CDNAssist{BandwidthBytesPerSec: 64 * 1024}
	}
	if flag("churn", r.Intn(4) == 0) {
		cfg.Churn = ChurnModel{MeanOnline: 20 * time.Second, MinRemaining: 2}
	}
	if flag("rep", r.Intn(2) == 0) {
		cfg.Reputation = repDefault()
	}
	// Each fault or adversary window claims its own node, so any mix of
	// them validates.
	nodes := r.Perm(leechers)
	take := func() int {
		n := nodes[0] + 1
		nodes = nodes[1:]
		return n
	}
	at := func() time.Duration { return time.Duration(1+r.Intn(10)) * time.Second }
	dur := func() time.Duration { return time.Duration(2+r.Intn(20)) * time.Second }
	var plans []fault.Plan
	if flag("crash", r.Intn(3) == 0) {
		n, down := take(), at()
		plans = append(plans, fault.Plan{Events: []fault.Event{
			{At: down, Dur: 12*time.Second + dur() - down, Kind: fault.KindPeerCrash, Node: n},
		}})
	}
	if flag("seeder-outage", r.Intn(5) == 0) {
		plans = append(plans, fault.SeederOutage(at(), dur()))
	}
	if flag("flap", r.Intn(3) == 0) {
		plans = append(plans, fault.LinkFlap(take(), at(), dur()))
	}
	if flag("corrupt", r.Intn(4) == 0) {
		plans = append(plans, fault.Corruption(take(), at(), dur(), float64(20+r.Intn(60))))
	}
	if flag("adversary", r.Intn(2) == 0) {
		switch n := take(); r.Intn(4) {
		case 0:
			plans = append(plans, fault.Corrupter(n, at(), dur()))
		case 1:
			plans = append(plans, fault.Polluter(n, at(), dur(), float64(30+r.Intn(60))))
		case 2:
			plans = append(plans, fault.StaleHaveLiar(n, at(), dur()))
		case 3:
			plans = append(plans, fault.Slowloris(n, at(), dur(), 1024))
		}
	}
	cfg.Faults = fault.Merge(plans...)
	return reflect.ValueOf(scenario{cfg: cfg, desc: desc})
}

// TestPickerMatchesFullScanOracle runs generated swarms with the full-scan
// picker checking every selection of every fill, then proves the
// oracle itself inert: its extra flow-progress reads must leave the run
// bit-identical to an unobserved one.
func TestPickerMatchesFullScanOracle(t *testing.T) {
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 2 * time.Second}, 40*time.Second, 1)
	var total oracleStats
	check := func(sc scenario) bool {
		sw, err := newSwarm(sc.cfg, segs)
		if err != nil {
			t.Errorf("%s: %v", sc.desc, err)
			return false
		}
		failures := 0
		attachOracle(sw, &total, func(format string, args ...any) {
			if failures++; failures <= 5 {
				t.Errorf("%s: "+format, append([]any{sc.desc}, args...)...)
			}
		})
		if err := sw.eng.Run(5_000_000); err != nil {
			t.Errorf("%s: %v", sc.desc, err)
			return false
		}
		plain, err := RunSwarm(sc.cfg, segs)
		if err != nil {
			t.Errorf("%s: %v", sc.desc, err)
			return false
		}
		if got := sw.collect(); !reflect.DeepEqual(got, plain) {
			t.Errorf("%s: the oracle perturbed the run:\nobserved: %+v\nplain:    %+v", sc.desc, got, plain)
			return false
		}
		return failures == 0
	}
	n := 120
	if testing.Short() {
		n = 30
	}
	if err := quick.Check(check, &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", total)
	// Every mechanism must have been exercised, or the agreement is vacuous.
	for name, n := range map[string]int{
		"frontier cuts": total.cuts, "relay picks": total.relays, "CDN picks": total.cdn,
		"liar picks": total.liars, "picks past the frontier": total.pastEdge,
		"escape-hatch picks": total.escapeHatch, "blocked picks": total.picks - total.cuts - total.launches,
	} {
		if n == 0 {
			t.Errorf("no %s in %d scenarios", name, total.picks)
		}
	}
}
