package simpeer

import (
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/netem"
	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
)

// peerState is one node's swarm state (seeder or leecher).
type peerState struct {
	id       int
	rate     int64 // configured access rate (oracle policy input)
	node     netem.NodeID
	isSeeder bool
	isCDN    bool

	have      []bool
	haveCount int

	// Leecher-only fields.
	player *player.Player
	// inFlight is indexed by segment: the active download, or nil. Index
	// order is the deterministic teardown order. inFlightN counts the
	// non-nil entries and firstMissing is the lowest segment not yet held
	// (have only ever gains entries, so it only moves forward).
	inFlight     []*download
	inFlightN    int
	firstMissing int
	uploads      int // concurrent uploads this node serves
	est          *core.BandwidthEstimator
	joined       time.Duration
	departed     bool

	// Crash state (fault plans only). A crashed peer keeps its segment
	// store across rejoin (process-restart model) but serves and fetches
	// nothing while down. lastCrashAt/rejoinedAt bound the most recent
	// outage so retroactively-observed player stalls inside the window
	// attribute to the crash.
	crashed     bool
	crashes     int
	lastCrashAt time.Duration
	rejoinedAt  time.Duration
	// Link-flap window bounds, kept for the same retroactive stall
	// attribution (netem owns the live down/up flag).
	linkDowns      int
	lastLinkDownAt time.Duration
	linkUpAt       time.Duration
	// Corruption window state (fault plans only). corruptPct > 0 while a
	// window is open on this peer; the bounds and discard counters give
	// retroactively-observed stalls inside the window their cause.
	corruptPct      float64
	corruptStartAt  time.Duration
	corruptEndAt    time.Duration
	corruptDiscards int
	// segAttempts counts download attempts per segment so every retry of
	// a discarded segment gets a fresh deterministic corruption draw
	// (a fixed per-segment draw would livelock at high percentages).
	// Allocated on the first draw: fault-free runs never need it.
	segAttempts []int
	// Adversary window state (fault plans only). advKind != AdvNone while
	// a window is open on this peer — misbehavior AS A SOURCE: corrupter
	// and polluter serves fail verification at the requester, stale-have
	// and slowloris serves hang as pending downloads until the serve
	// timeout. adversarial is sticky so collection can exclude the peer's
	// own playback from honest-swarm samples.
	advKind     fault.AdversaryKind
	advPct      float64 // polluter corruption probability, percent
	adversarial bool
	// Burst-loss window observations. Observer-owned: written only by
	// onLossState (attached only when tracing or metering) and read only
	// by stall attribution, never by scheduling.
	geBursts int
	geBadAt  time.Duration
	geGoodAt time.Duration
	// retryAttempt counts consecutive blocked fills for backoff; any
	// successful launch resets it.
	retryAttempt int

	// lastSrc is the source of this peer's most recent download. Peers keep
	// stable relationships (the unchoke pairs of a piece-level protocol stay
	// put for tens of seconds), which keeps the distribution chain — and
	// each peer's pipeline depth in it — stable from segment to segment.
	lastSrc *peerState
	// uploading counts, per segment index, how many copies of that segment
	// this node is currently sending. A node never sends the same segment
	// twice in parallel: the second requester chains off the first copy
	// (see pickSource), which is how the piece-level protocol behaves.
	uploading []int
	// retryPending marks a scheduled source-retry so fill does not stack
	// duplicate timers while the peer waits for an eligible source.
	retryPending bool
}

// download is one in-flight segment transfer with its chosen source.
// flow is nil for a pending adversary serve (stale-have or slowloris):
// no bytes move, and the entry is reaped by the serve-timeout event;
// pending records which adversary kind opened it, for attribution.
type download struct {
	flow    *netem.Flow
	src     *peerState
	pending fault.AdversaryKind
}

// initialBandwidthGuess is the B an estimating leecher feeds the policy
// before its first download completes.
const initialBandwidthGuess = 64 * 1024

// bandwidth returns the B fed into the pooling policy.
func (s *swarm) bandwidth(p *peerState) int64 {
	if s.cfg.OracleBandwidth {
		if p.rate > 0 {
			return p.rate
		}
		return s.cfg.BandwidthBytesPerSec
	}
	if b := p.est.Estimate(); b > 0 {
		return b
	}
	return initialBandwidthGuess
}

// wanted reports whether p still needs segment idx and is not fetching it.
//
//lint:hotpath
func (p *peerState) wanted(idx int) bool {
	return !p.have[idx] && p.inFlight[idx] == nil
}

// dropFlight removes p's download of segment idx and returns the upload
// slot it held to its source. The caller cancels the flow if it is live.
// It is the one place the pool shrinks, and it syncs the player first, so
// a stall this call reveals is attributed with the download still in the
// pool (see trace.StallFacts). The sync moves no player state: advanceTo
// computes the stall instant exactly.
func (p *peerState) dropFlight(idx int, now time.Duration) {
	p.player.Position(now)
	d := p.inFlight[idx]
	p.inFlight[idx] = nil
	p.inFlightN--
	d.src.uploads--
	d.src.uploading[idx]--
}

// nextWanted returns the index of the next segment to request, or -1. The
// scan resumes at the first-missing cursor, so it costs the in-flight
// window (plus the rarest-first lookahead), not the clip.
//
//lint:hotpath runs at the top of every fill
func (s *swarm) nextWanted(p *peerState) int {
	first := p.firstMissing
	for first < len(s.segs) && !p.wanted(first) {
		first++
	}
	if first == len(s.segs) {
		return -1
	}
	if s.cfg.Selection != SelectRarestFirst {
		return first
	}
	// Rarest-first within a lookahead window of wanted segments.
	best, bestHolders := first, int(^uint(0)>>1)
	seen := 0
	for idx := first; idx < len(s.segs) && seen < s.rarestWindow; idx++ {
		if !p.wanted(idx) {
			continue
		}
		seen++
		holders := s.holderCount(idx)
		if holders > 0 && holders < bestHolders {
			best, bestHolders = idx, holders
		}
	}
	return best
}

// holderCount counts active peers holding segment idx.
//
//lint:hotpath rarest-first calls it per lookahead segment in nextWanted
func (s *swarm) holderCount(idx int) int {
	n := 0
	for _, q := range s.peers {
		if !q.departed && !q.crashed && q.have[idx] {
			n++
		}
	}
	return n
}

// servesWholeClip reports whether q answers for every segment of the clip
// regardless of what leechers have fetched: the seeder, or a stale-have
// liar (or slowloris), which claims every segment while its window is
// open — that is the attack: requesters believe the HAVE and assign it
// downloads that will only die by serve timeout.
//
//lint:hotpath
func (q *peerState) servesWholeClip() bool {
	return q.isSeeder || q.advKind == fault.AdvStaleHave || q.advKind == fault.AdvSlowloris
}

// sourceProgress returns how much of segment idx the candidate q can serve:
// 1.0 for a full holder, the download progress for a relaying leecher, and
// -1 if q cannot serve the segment at all. Reading a relay's progress
// advances its flow's byte count to now, which perturbs nothing: netem
// recomputes progress from the last rate-change anchor, so the value is
// the same however many reads came before.
//
//lint:hotpath runs per candidate source per wanted segment
func (s *swarm) sourceProgress(q *peerState, idx int) float64 {
	if q.have[idx] || q.servesWholeClip() {
		return 1
	}
	if s.cfg.DisableRelay {
		return -1
	}
	d := q.inFlight[idx]
	if d == nil || d.flow == nil {
		return -1
	}
	size := d.flow.Size()
	if size <= 0 {
		return -1
	}
	progress := 1 - float64(d.flow.Remaining())/float64(size)
	if progress < s.relayThreshold {
		return -1
	}
	return progress
}

// defaultRelayThreshold is a couple of 16 kB pieces into a typical segment.
const defaultRelayThreshold = 0.02

// sourceRetryDelay is how soon a peer that found no eligible source looks
// again. It stands in for the continuous per-piece re-evaluation of the real
// protocol (there is no protocol event for "a relay crossed its threshold").
const sourceRetryDelay = 250 * time.Millisecond

// candidate is one member of a fill's source set.
type candidate struct {
	q *peerState
	// quarantined sources are skipped by the first selection pass and
	// admitted by the second (the sole-source escape hatch).
	quarantined bool
}

// sourceSet is the segment-independent half of source eligibility,
// evaluated once per fill: every peer other than the requester that is
// present, up, reachable and below its upload cap, in peer order. fill
// keeps it current as its own launches fill upload slots.
type sourceSet struct {
	cands []candidate
	// sticky is the requester's previous source when it is in the set
	// (q == nil otherwise).
	sticky candidate
	// wholeClip counts the members that serve segments nobody has fetched
	// yet (see servesWholeClip).
	wholeClip int
	// cdnOK is the paper's hybrid rule: a client downloads at most one
	// segment at a time from the CDN.
	cdnOK bool
}

// buildSourceSet evaluates the source set for a fill of p at now.
//
//lint:hotpath runs once per fill that has pool room
func (s *swarm) buildSourceSet(p *peerState, now time.Duration) {
	set := &s.set
	set.cands = set.cands[:0]
	set.sticky = candidate{}
	set.wholeClip = 0
	for _, q := range s.peers {
		if q == p || q.departed || q.crashed || s.atUploadCap(q) || s.net.LinkIsDown(q.node) {
			continue
		}
		c := candidate{q: q, quarantined: s.rep != nil && s.rep.Quarantined(q.id, now)}
		//lint:ignore allocfree amortized: the scratch grows to the swarm size once and is reused
		set.cands = append(set.cands, c)
		if q == p.lastSrc {
			set.sticky = c
		}
		if q.servesWholeClip() {
			set.wholeClip++
		}
	}
	set.cdnOK = s.cdn != nil && s.cdnEligible(p)
}

// atUploadCap reports whether q has no free upload slot.
//
//lint:hotpath
func (s *swarm) atUploadCap(q *peerState) bool {
	return s.slots > 0 && q.uploads >= s.slots
}

// noteLaunch brings the source set up to date after fill started a
// download from src: src is now the sticky source, unless the launch took
// its last upload slot (or the CDN's one-at-a-time slot).
func (s *swarm) noteLaunch(src *peerState) {
	set := &s.set
	set.sticky = candidate{}
	if src.isCDN {
		set.cdnOK = false
		return
	}
	for i, c := range set.cands {
		if c.q != src {
			continue
		}
		if !s.atUploadCap(src) {
			set.sticky = c
			return
		}
		set.cands = append(set.cands[:i], set.cands[i+1:]...)
		if src.servesWholeClip() {
			set.wholeClip--
		}
		return
	}
}

// beyondReach reports whether nothing in the source set can serve segment
// idx or any later one. The availability frontier is the highest segment
// any leecher has ever started fetching; past it no leecher holds or
// relays anything, so only whole-clip holders and the CDN can serve.
func (s *swarm) beyondReach(idx int) bool {
	return idx > s.frontier && s.set.wholeClip == 0 && !s.set.cdnOK
}

// serves returns c's progress on segment idx if it may serve it in this
// selection pass, and -1 otherwise. allowQuarantined opens the
// sole-source escape hatch: the second selection pass considers
// quarantined sources rather than sacrifice liveness (a fully quarantined
// swarm must still drain off its one honest seeder — or, at worst, off
// the quarantined peers themselves).
//
//lint:hotpath runs per candidate source per wanted segment
func (s *swarm) serves(c candidate, idx int, allowQuarantined bool) float64 {
	// A source already sending this segment to someone would split the
	// frontier rate with a duplicate upload. The requester chains off the
	// in-flight copy once it crosses the relay threshold.
	if (c.quarantined && !allowQuarantined) || c.q.uploading[idx] != 0 {
		return -1
	}
	return s.sourceProgress(c.q, idx)
}

// pickSource chooses the uploader for segment idx from the current source
// set: non-quarantined swarm sources first, then the CDN fallback, then —
// only when reputation is active and nothing else can serve — quarantined
// sources (the liveness escape hatch). With reputation disabled this is
// exactly the legacy selection.
//
//lint:hotpath runs per wanted segment in the pool window
func (s *swarm) pickSource(idx int) *peerState {
	if src := s.pickSourceFrom(idx, false); src != nil {
		return src
	}
	if s.set.cdnOK {
		return s.cdn
	}
	if s.rep != nil {
		return s.pickSourceFrom(idx, true)
	}
	return nil
}

// pickSourceFrom runs one selection pass: the previous source if it is
// still eligible (stable unchoke relationships keep the distribution
// chain, and every peer's pipeline depth in it, steady across segments),
// otherwise the least-loaded eligible source, ties broken by higher relay
// progress and then by lowest peer ID (deterministic). The CDN, when
// configured, is a fallback only: swarm sources offload it (the paper's
// hybrid architecture serves "by peers as well as a CDN").
//
//lint:hotpath runs per wanted segment in the pool window
func (s *swarm) pickSourceFrom(idx int, allowQuarantined bool) *peerState {
	set := &s.set
	if set.sticky.q != nil && s.serves(set.sticky, idx, allowQuarantined) >= 0 {
		return set.sticky.q
	}
	var best *peerState
	var bestProgress float64
	for _, c := range set.cands {
		progress := s.serves(c, idx, allowQuarantined)
		if progress < 0 {
			continue
		}
		if best == nil || c.q.uploads < best.uploads ||
			(c.q.uploads == best.uploads && progress > bestProgress) {
			best, bestProgress = c.q, progress
		}
	}
	return best
}

// cdnEligible enforces the paper's hybrid rule: a client downloads at most
// one segment at a time from the CDN. p's downloads all lie between its
// first missing segment and the availability frontier.
//
//lint:hotpath part of the source-set build
func (s *swarm) cdnEligible(p *peerState) bool {
	for idx := p.firstMissing; idx <= s.frontier; idx++ {
		if d := p.inFlight[idx]; d != nil && d.src.isCDN {
			return false
		}
	}
	return true
}

// fill tops up p's download pool according to its policy. It is called on
// join and after every event that could change the decision (completion,
// cancellation, departure); when a wanted segment has no eligible source it
// schedules a short retry.
func (s *swarm) fill(p *peerState) {
	if p.isSeeder || p.departed || p.crashed || s.net.LinkIsDown(p.node) {
		return
	}
	now := s.eng.Now()
	next := s.nextWanted(p)
	if next == -1 {
		return // everything downloaded or in flight
	}
	b := s.bandwidth(p)
	buffered := p.player.BufferedAhead(now)
	segBytes := s.segs[next].Bytes
	target := s.cfg.Policy.PoolSize(b, buffered, segBytes)
	s.qoe.PoolK.Observe(int64(target))
	inFlightBefore := p.inFlightN
	if inFlightBefore >= target {
		return
	}
	// The pool is the next `target` wanted segments; request every one with
	// an eligible source, skipping over segments that are momentarily
	// sourceless so a fixed pool still pipelines. The scan ends early where
	// nothing in the source set can reach: every later segment is wanted
	// (no leecher has fetched past the frontier) and blocked.
	s.buildSourceSet(p, now)
	blocked := false
	launched := 0
	for idx := next; idx < len(s.segs) && p.inFlightN < target; idx++ {
		if !p.wanted(idx) {
			continue
		}
		var src *peerState
		beyond := s.beyondReach(idx)
		if !beyond {
			src = s.pickSource(idx)
		}
		if s.pickCheck != nil {
			s.pickCheck(p, idx, src, beyond)
		}
		if src != nil {
			s.startDownload(p, src, idx)
			s.noteLaunch(src)
			launched++
			continue
		}
		blocked = true
		if beyond {
			break
		}
	}
	if launched > 0 {
		p.retryAttempt = 0
	}
	// Windowed telemetry mirrors the pool_fill event exactly (same site,
	// same timestamp, same values) so the trace-derived time series is
	// bit-identical to this in-process one.
	s.qoe.BufferedUS.Observe(now, buffered.Microseconds())
	s.qoe.PoolTarget.Observe(now, int64(target))
	s.qoe.Inflight.Observe(now, int64(p.inFlightN))
	if s.cfg.Tracer.Enabled() {
		flag := int64(0)
		if blocked {
			flag = 1
		}
		s.emit(p.id, next, trace.CatPool, trace.EvPoolFill,
			trace.Int64("bandwidth", b),
			trace.Int64("buffered_us", buffered.Microseconds()),
			trace.Int64("seg_bytes", segBytes),
			trace.Int64("target", int64(target)),
			trace.Int64("inflight", int64(inFlightBefore)),
			trace.Int64("launched", int64(launched)),
			trace.Int64("blocked", flag))
	}
	if blocked && !p.retryPending {
		p.retryPending = true
		// Legacy fixed retry unless backoff is opted in: capped exponential
		// with deterministic jitter (a pure hash of seed/peer/attempt, never
		// the engine RNG, so enabling it perturbs no other draw).
		delay := sourceRetryDelay
		attempt := 0
		if s.cfg.RetryBackoff.Enabled() {
			attempt = p.retryAttempt
			delay = s.cfg.RetryBackoff.Delay(s.cfg.Seed, p.id, attempt)
			p.retryAttempt++
		}
		if s.cfg.Tracer.Enabled() {
			s.emit(p.id, next, trace.CatPool, trace.EvSourceRetry,
				trace.Int64("delay_us", delay.Microseconds()),
				trace.Int64("attempt", int64(attempt)))
		}
		s.eng.Schedule(delay, func() {
			p.retryPending = false
			if !p.departed {
				s.fill(p)
			}
		})
	}
}

// startDownload launches one segment transfer.
func (s *swarm) startDownload(p, src *peerState, idx int) {
	src.uploads++
	src.uploading[idx]++
	p.inFlightN++
	p.lastSrc = src
	if idx > s.frontier {
		s.frontier = idx
	}
	// A stale-have or slowloris source accepted the request but will never
	// deliver the segment inside the serve timeout: model the hang as a
	// pending download with no netem flow, reaped by a scheduled timeout.
	// (A slowloris trickles real bytes, but a trickle that cannot finish
	// before the timeout is indistinguishable from silence in the fluid
	// model; the trickle rate is trace metadata.)
	if src.advKind == fault.AdvStaleHave || src.advKind == fault.AdvSlowloris {
		d := &download{src: src, pending: src.advKind}
		p.inFlight[idx] = d
		if s.cfg.Tracer.Enabled() {
			s.emit(p.id, idx, trace.CatPool, trace.EvSourcePick,
				trace.Int64("flow", -1),
				trace.Int64("src", int64(src.id)))
		}
		s.eng.Schedule(s.serveTimeout(), func() { s.onServeTimeout(p, src, idx, d) })
		return
	}
	opts := netem.TransferOptions{ReuseConnection: !s.cfg.FreshConnectionPerSegment}
	flow, err := s.net.StartTransfer(src.node, p.node, s.segs[idx].Bytes, opts,
		func(f *netem.Flow) { s.onDownloadComplete(p, src, idx, f) })
	if err != nil {
		// Unreachable: nodes and sizes are validated at setup.
		panic("simpeer: start transfer: " + err.Error())
	}
	p.inFlight[idx] = &download{flow: flow, src: src}
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvSourcePick,
			trace.Int64("flow", int64(flow.ID())),
			trace.Int64("src", int64(src.id)))
	}
}

// defaultServeTimeout bounds how long a pending request may hang before
// the requester gives up on the source — behavior that exists with or
// without reputation (otherwise a stale-have liar would pin its victims
// forever).
const defaultServeTimeout = 4 * time.Second

// serveTimeout resolves the pending-request timeout.
func (s *swarm) serveTimeout() time.Duration {
	if s.cfg.Reputation != nil && s.cfg.Reputation.ServeTimeout > 0 {
		return s.cfg.Reputation.ServeTimeout
	}
	return defaultServeTimeout
}

// onServeTimeout reaps a pending download whose source never delivered:
// the segment returns to the pool, the source is charged (stale-have for
// a silent liar, slow-serve for a slowloris trickle), and the requester
// refills immediately.
func (s *swarm) onServeTimeout(p, src *peerState, idx int, d *download) {
	if p.inFlight[idx] != d {
		return // already reaped by crash/departure teardown
	}
	p.dropFlight(idx, s.eng.Now())
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvServeTimeout,
			trace.Int64("src", int64(src.id)),
			trace.Str("kind", d.pending.String()))
	}
	obs := reputation.ObsStaleHave
	if d.pending == fault.AdvSlowloris {
		obs = reputation.ObsSlowServe
	}
	s.observeRep(src, obs)
	if !p.departed && !p.crashed {
		s.fill(p)
	}
}

// onDownloadComplete handles a finished segment transfer.
func (s *swarm) onDownloadComplete(p, src *peerState, idx int, f *netem.Flow) {
	// k counts the finishing flow too: it is this peer's concurrency while
	// the segment was in transit.
	k := int64(p.inFlightN)
	now := s.eng.Now()
	p.dropFlight(idx, now)
	if p.departed {
		return
	}
	// Eq. 1 wants the peer's aggregate download bandwidth B, but one flow
	// of a k-way pool delivers only ~B/k: feeding per-flow throughput into
	// the estimator made it converge to B/k, inflating the pool size and
	// over-subscribing the access link. Scaling the observed bytes by the
	// in-flight count recovers the aggregate rate — the emulation twin of
	// the real stack's core.AggregateMeter.
	if k < 1 {
		k = 1
	}
	p.est.Observe(f.Size()*k, f.Elapsed())
	// Inside a corruption window the bytes arrive (the estimator above
	// sees real link throughput) but the segment can fail container
	// checksum verification, in which case it goes back to the pool and
	// is fetched again. Whether THIS attempt is corrupted is a pure hash
	// of (seed, peer, segment, attempt) — see fault.CorruptDraw — so the
	// outcome is identical across runs and -workers values and consumes
	// no engine randomness. An adversarial source fails verification the
	// same way: always for a corrupter, per-attempt via the equally pure
	// fault.PolluteDraw for a polluter. Either way the requester's
	// inference is the same — "this source served me garbage" — so the
	// source is charged a reputation verify-fail.
	advSrc := src.advKind == fault.AdvCorrupter || src.advKind == fault.AdvPolluter
	if (p.corruptPct > 0 || advSrc) && !p.have[idx] {
		if p.segAttempts == nil {
			p.segAttempts = make([]int, len(s.segs))
		}
		attempt := p.segAttempts[idx]
		p.segAttempts[idx] = attempt + 1
		discard := false
		if p.corruptPct > 0 && fault.CorruptDraw(s.cfg.Seed, p.id, idx, attempt)*100 < p.corruptPct {
			discard = true
			p.corruptDiscards++
		}
		if !discard && advSrc {
			discard = src.advKind == fault.AdvCorrupter ||
				fault.PolluteDraw(s.cfg.Seed, src.id, p.id, idx, attempt)*100 < src.advPct
		}
		if discard {
			if s.cfg.Tracer.Enabled() {
				s.emit(p.id, idx, trace.CatPool, trace.EvVerifyFail,
					trace.Int64("attempt", int64(attempt)),
					trace.Int64("src", int64(src.id)))
			}
			s.observeRep(src, reputation.ObsVerifyFail)
			// Not a completion: no segment metrics, no have/player update.
			// Refill so the re-request launches immediately.
			s.fill(p)
			return
		}
	}
	if s.rep != nil {
		s.observeRep(src, s.rep.Config().ServeObservation(f.Size(), f.Elapsed()))
	}
	s.qoe.SegSeconds.ObserveDuration(f.Elapsed())
	s.qoe.SegBytes.Observe(f.Size())
	s.qoe.SegsDone.Inc(now)
	if s.cfg.Tracer.Enabled() {
		s.emit(p.id, idx, trace.CatPool, trace.EvSegComplete,
			trace.Int64("bytes", f.Size()),
			trace.Int64("elapsed_us", f.Elapsed().Microseconds()),
			trace.Int64("src", int64(src.id)))
	}
	if !p.have[idx] {
		p.have[idx] = true
		p.haveCount++
		for p.firstMissing < len(p.have) && p.have[p.firstMissing] {
			p.firstMissing++
		}
	}
	if err := p.player.OnSegmentComplete(idx, now); err != nil {
		panic("simpeer: segment complete: " + err.Error()) // unreachable
	}
	// New availability can unblock any peer; refill everyone (p included).
	s.fillAll()
	// Once every active leecher holds every segment, background traffic has
	// served its purpose: cancel it so the simulation can drain.
	if len(s.cross) > 0 && s.allDownloadsDone() {
		for _, f := range s.cross {
			f.Cancel()
		}
		s.cross = nil
	}
}

// allDownloadsDone reports whether every non-departed leecher holds every
// segment.
func (s *swarm) allDownloadsDone() bool {
	for _, q := range s.peers[1:] {
		if q.departed {
			continue
		}
		if q.haveCount != len(s.segs) {
			return false
		}
	}
	return true
}
