// Package simpeer emulates the paper's experimental swarm: one seeder and N
// leechers on a star topology, exchanging spliced video segments with a
// BitTorrent-like sequential-with-pool strategy while every leecher plays
// the clip. It drives internal/netem with download decisions from
// internal/core policies and measures playback with internal/player.
package simpeer

import (
	"fmt"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/metrics"
	"p2psplice/internal/netem"
	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
	"p2psplice/internal/sim"
	"p2psplice/internal/trace"
)

// SegmentMeta is what the swarm needs to know about each segment: its wire
// size and display duration (from the manifest).
type SegmentMeta struct {
	Bytes    int64
	Duration time.Duration
}

// SelectionStrategy picks which wanted segment to request next.
type SelectionStrategy uint8

const (
	// SelectSequential requests the lowest-index wanted segment (the
	// paper's sequential-viewing strategy).
	SelectSequential SelectionStrategy = iota
	// SelectRarestFirst requests, within the next rarestWindow wanted
	// segments, the one with the fewest holders (the BitTorrent default,
	// used as an ablation).
	SelectRarestFirst
)

// CDNAssist configures the hybrid architecture's CDN origin.
type CDNAssist struct {
	// BandwidthBytesPerSec is the CDN's uplink capacity. Must be positive.
	BandwidthBytesPerSec int64
	// AccessDelay is the CDN's one-way delay to the star hub. CDNs are
	// close; zero is typical.
	AccessDelay time.Duration
}

// ChurnModel makes leechers depart mid-swarm (the paper's motivation for
// prefetching: "peers can leave the swarm anytime").
type ChurnModel struct {
	// MeanOnline is the mean exponential online time of a leecher after it
	// joins. Zero disables churn.
	MeanOnline time.Duration
	// MinRemaining stops departures once this many leechers remain.
	MinRemaining int
}

// SwarmConfig configures one emulated run.
type SwarmConfig struct {
	// Seed drives all randomness (join jitter, churn, tie-breaks).
	Seed int64
	// Leechers is the number of downloading viewers. The paper uses 19
	// leechers plus one seeder (twenty nodes).
	Leechers int
	// BandwidthBytesPerSec is every node's symmetric access-link rate (the
	// quantity the paper sweeps).
	BandwidthBytesPerSec int64
	// LeecherBandwidths optionally overrides individual leechers' access
	// rates (heterogeneous swarms; index i configures leecher i+1). Missing
	// or non-positive entries fall back to BandwidthBytesPerSec. The oracle
	// policy input uses each peer's own rate.
	LeecherBandwidths []int64
	// PeerAccessDelay is each leecher's one-way delay to the star hub
	// (peer-to-peer latency is twice this; the paper's 50 ms corresponds
	// to 25 ms).
	PeerAccessDelay time.Duration
	// SeederAccessDelay is the seeder's one-way delay to the hub (475 ms
	// reproduces the paper's 500 ms seeder latency in the startup
	// experiment).
	SeederAccessDelay time.Duration
	// LossRate is the per-access-link packet loss probability (paper: 5%).
	LossRate float64
	// Policy is the download-pooling policy every leecher uses.
	Policy core.Policy
	// OracleBandwidth, when true, feeds the configured link bandwidth into
	// the policy (the paper "simulated the bandwidth on GENI"). When false,
	// leechers estimate bandwidth with an EWMA over completed downloads.
	OracleBandwidth bool
	// ResumeBuffer is the player's rebuffering depth after a stall (see
	// player.Config.ResumeThreshold). Zero resumes on the next segment.
	ResumeBuffer time.Duration
	// JoinSpread staggers leecher joins uniformly over [0, JoinSpread].
	JoinSpread time.Duration
	// MaxUploadsPerPeer caps concurrent uploads per node — BitTorrent-style
	// unchoke slots. Without a cap, every peer's pool lands on the seeder
	// (the only holder of future segments) and the pile-up of TCP flows
	// collapses its uplink. Default 4; set -1 for unlimited (ablation).
	MaxUploadsPerPeer int
	// Selection picks the next segment to request. Default sequential.
	Selection SelectionStrategy
	// DisableRelay forces whole-segment store-and-forward (ablation)
	// instead of relaying past relayThreshold.
	DisableRelay bool
	// FreshConnectionPerSegment opens a new TCP connection for every
	// segment request (1.5 RTT handshake before the first byte) instead of
	// the default persistent peer connections (0.5 RTT request latency,
	// with slow-start restart after idle still applying). The paper's
	// observation that 2 s segments create "many small TCP connections"
	// is ablated with this flag.
	FreshConnectionPerSegment bool
	// Churn optionally makes leechers depart.
	Churn ChurnModel
	// Faults optionally injects a deterministic schedule of fault events
	// (peer crash/rejoin, link flaps and rate dips, tracker outages,
	// Gilbert–Elliott burst-loss windows, segment-corruption windows),
	// compiled against the sim clock at setup. The plan must validate
	// against the swarm's node count (see fault.Plan.Validate). An empty
	// plan schedules nothing: the run is bit-identical to one without the
	// fault layer, which the golden tests enforce.
	Faults fault.Plan
	// Reputation optionally enables the deterministic per-peer scoring and
	// quarantine subsystem (internal/reputation): misbehavior observed on
	// downloads — verify failures, serve timeouts, slow serves — demotes
	// and eventually quarantines the offending source, with decay and
	// probation re-admission, and a sole-source escape hatch preserving
	// liveness. Nil (or a disabled config) keeps legacy source selection
	// bit-identical — the inertness tests enforce it.
	Reputation *reputation.Config
	// RetryBackoff optionally replaces the fixed source-retry delay with
	// capped exponential backoff and deterministic jitter (hashed from
	// seed, peer, and attempt — never the engine RNG). The zero value
	// keeps the legacy fixed 250 ms retry, preserving existing goldens.
	RetryBackoff fault.Backoff
	// CDN optionally adds the paper's Section IV hybrid architecture: a
	// CDN node holding every segment. Peers prefer swarm sources and fall
	// back to the CDN, and — per the paper — each client downloads at most
	// one segment at a time from it.
	CDN *CDNAssist
	// CrossTraffic adds this many unbounded background flows between
	// dedicated traffic nodes and random leechers (congestion ablation).
	CrossTraffic int
	// Tracer receives structured events: flow lifecycles, pool-fill
	// decisions with their live Equation-1 inputs, source picks, and
	// playback transitions with attributed stall causes. Tracing is inert:
	// the run is bit-identical with and without it. Nil disables.
	Tracer *trace.Tracer
	// Metrics optionally receives QoE/transport histograms (startup,
	// per-cause stall durations, segment latency and bytes, Eq. 1 pool
	// sizes). Like the Tracer it is a pure observer — the run is
	// bit-identical with and without it (TestMetricsAreInert). Nil
	// disables.
	Metrics *trace.Registry
	// MetricsScheme labels the segment histograms with the splicing
	// scheme under test (e.g. "gop", "4s") so one registry can compare
	// schemes. Empty omits the label.
	MetricsScheme string
	// Series optionally receives windowed virtual-time telemetry (buffer
	// occupancy, in-flight flows, stalled peers, pool targets, segment
	// completions per window — trace.TS* series). Like Tracer and Metrics
	// it is a pure observer: the run is bit-identical with and without it
	// (TestTimeSeriesInert). Nil disables.
	Series *trace.TimeSeries
}

// validate checks what only simpeer reads; netem.NodeConfig.Validate
// checks the link parameters when setup adds each node.
func (c SwarmConfig) validate() error {
	if c.Leechers < 1 {
		return fmt.Errorf("simpeer: need at least 1 leecher, got %d", c.Leechers)
	}
	if c.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("simpeer: bandwidth must be positive, got %d", c.BandwidthBytesPerSec)
	}
	if c.Policy == nil {
		return fmt.Errorf("simpeer: nil policy")
	}
	return nil
}

// PeerResult is one leecher's outcome.
type PeerResult struct {
	Peer     int
	Departed bool
	// Crashes counts how many times an injected fault took this peer down.
	Crashes int
	// Adversarial marks a peer that ran an injected adversary window at
	// any point: its playback is not a measurement of the honest swarm.
	Adversarial bool
	Metrics     player.Metrics
}

// Result is the outcome of one emulated run.
type Result struct {
	// Samples holds one entry per leecher that stayed in the swarm and
	// never crashed, in peer order. Crashed peers are excluded because a
	// crash window is dead air, not a playback stall.
	Samples []metrics.PlaybackSample
	// Peers holds detailed per-leecher results (departed and crashed
	// peers included).
	Peers []PeerResult
	// EndTime is the virtual time at which the last event fired.
	EndTime time.Duration
	// Departed counts churned-out leechers.
	Departed int
	// Crashed counts leechers that suffered at least one injected crash
	// (and did not also depart).
	Crashed int
	// Adversarial counts leechers excluded from Samples because they ran
	// an adversary window (their playback measures nothing honest).
	Adversarial int
}

// Summary aggregates the non-departed samples.
func (r *Result) Summary() metrics.Summary { return metrics.Summarize(r.Samples) }

const (
	// maxEvents bounds one run's engine events (a runaway-simulation guard).
	maxEvents = 20_000_000
	// defaultManifestBytes is the size of the swarm/clip metadata a joining
	// peer fetches from the seeder before requesting segments (the paper:
	// "each peer contacts the seeder and gets different information about
	// the video and the swarm"). This is why the seeder's 500 ms latency
	// shows up in every startup time.
	defaultManifestBytes = 4096
	// rarestWindow bounds rarest-first lookahead: the number of wanted
	// segments SelectRarestFirst compares.
	rarestWindow = 8
)

// RunSwarm executes one deterministic emulated run.
func RunSwarm(cfg SwarmConfig, segs []SegmentMeta) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("simpeer: no segments")
	}
	for i, s := range segs {
		if s.Bytes <= 0 || s.Duration <= 0 {
			return nil, fmt.Errorf("simpeer: segment %d has non-positive size or duration", i)
		}
	}

	sw, err := newSwarm(cfg, segs)
	if err != nil {
		return nil, err
	}

	if err := sw.eng.Run(maxEvents); err != nil {
		return nil, fmt.Errorf("simpeer: %w", err)
	}
	if cfg.Tracer.Enabled() {
		sw.emit(-1, -1, trace.CatSim, trace.EvSimSummary,
			trace.Int64("events_fired", sw.eventsFired))
	}

	return sw.collect(), nil
}

// newSwarm builds a validated config's swarm with every join, fault and
// cross-traffic flow scheduled, ready for the engine to run.
func newSwarm(cfg SwarmConfig, segs []SegmentMeta) (*swarm, error) {
	eng := sim.New(cfg.Seed)
	sw := &swarm{eng: eng, net: netem.New(eng), cfg: cfg, segs: segs,
		repPenalties: cfg.Metrics.Counter("sim_rep_penalties_total"),
		quarantines:  cfg.Metrics.Counter("sim_quarantines_total"),
		frontier:     -1, manifestBytes: defaultManifestBytes}
	cfg.Metrics.SetHelp("sim_rep_penalties_total", "Reputation penalty observations recorded.")
	cfg.Metrics.SetHelp("sim_quarantines_total", "Quarantine windows opened on peers.")
	if err := sw.setup(); err != nil {
		return nil, err
	}
	sw.qoe = trace.NewQoE(cfg.Tracer, cfg.Metrics, "sim", cfg.MetricsScheme, cfg.Series, len(sw.peers)-1)
	return sw, nil
}

// swarm is the run-scoped state.
type swarm struct {
	eng   *sim.Engine
	net   *netem.Network
	cfg   SwarmConfig
	segs  []SegmentMeta
	peers []*peerState // peers[0] is the seeder
	// cdn is the Section IV hybrid origin, or nil. It is not in peers.
	cdn *peerState
	// cross holds background traffic flows; they are cancelled once every
	// leecher has finished downloading so the event queue can drain.
	cross []*netem.Flow
	// qoe records playback telemetry into cfg.Tracer, cfg.Metrics and
	// cfg.Series (each may be nil). Observer-owned: nothing in scheduling
	// reads it. The two reputation counters are no-ops without a registry.
	qoe          *trace.QoE
	repPenalties trace.Counter
	quarantines  trace.Counter
	// nodeToPeer attributes netem flow events to peer IDs; populated only
	// when tracing.
	nodeToPeer map[netem.NodeID]int
	// eventsFired counts engine events; maintained only when tracing.
	eventsFired int64
	// trackerDown marks an injected tracker outage: joins and rejoins
	// defer into the queue below until recovery drains it.
	trackerDown bool
	deferred    []func()
	// rep is the per-peer reputation table, or nil when the subsystem is
	// disabled (the legacy-selection path).
	rep *reputation.Table[int]

	// Scheduler inputs (peer.go). slots is the config's per-peer upload cap
	// with its default resolved (0 = unlimited). frontier is the
	// availability frontier: the highest segment any leecher has ever
	// started fetching, -1 before the first download. roster indexes every
	// peer's src by its id: the leechers' pools keep its holdings and
	// loads current, remark its presence and whole-clip bits. set is the
	// running fill's view of it (scratch, reused across fills; fill never
	// re-enters).
	slots    int
	frontier int
	roster   *core.Roster
	set      core.SourceSet
	// manifestBytes is what a joining peer fetches from the seeder first:
	// defaultManifestBytes, except in the 1 000-peer alloc benchmark, whose
	// warm-up would otherwise be a manifest flash crowd.
	manifestBytes int64
	// pickCheck, when set, sees every selection the scheduler makes for a
	// fill before fill acts on it (cut marks a scan cut at the frontier).
	// Tests only: the differential oracle hangs the full-scan picker here.
	pickCheck func(p *peerState, idx int, src *core.Source, cut bool)
}

// nodePlan resolves the per-node link parameters from the config.
func (s *swarm) nodePlan() (seeder netem.NodeConfig, leechers, traffic []netem.NodeConfig) {
	seeder = netem.NodeConfig{
		UplinkBytesPerSec:   s.cfg.BandwidthBytesPerSec,
		DownlinkBytesPerSec: s.cfg.BandwidthBytesPerSec,
		AccessDelay:         s.cfg.SeederAccessDelay,
		LossRate:            s.cfg.LossRate,
	}
	for i := 0; i < s.cfg.Leechers; i++ {
		rate := s.cfg.BandwidthBytesPerSec
		if i < len(s.cfg.LeecherBandwidths) && s.cfg.LeecherBandwidths[i] > 0 {
			rate = s.cfg.LeecherBandwidths[i]
		}
		leechers = append(leechers, netem.NodeConfig{
			UplinkBytesPerSec:   rate,
			DownlinkBytesPerSec: rate,
			AccessDelay:         s.cfg.PeerAccessDelay,
			LossRate:            s.cfg.LossRate,
		})
	}
	for i := 0; i < s.cfg.CrossTraffic; i++ {
		traffic = append(traffic, netem.NodeConfig{
			UplinkBytesPerSec:   s.cfg.BandwidthBytesPerSec,
			DownlinkBytesPerSec: s.cfg.BandwidthBytesPerSec,
			AccessDelay:         s.cfg.PeerAccessDelay,
		})
	}
	return seeder, leechers, traffic
}

func (s *swarm) setup() error {
	s.slots = 4
	if s.cfg.MaxUploadsPerPeer != 0 {
		s.slots = max(s.cfg.MaxUploadsPerPeer, 0) // negative: unlimited
	}
	if s.cfg.Reputation != nil && s.cfg.Reputation.Enabled() {
		s.rep = reputation.NewTable[int](*s.cfg.Reputation)
	}
	if s.cfg.Tracer.Enabled() || s.cfg.Metrics != nil {
		// Pure listeners: they observe without feeding anything back into
		// the simulation. The loss-state observer (and the node→peer map
		// it needs) also serves metrics-only runs, because per-cause stall
		// histograms attribute retroactive stalls to burst windows.
		s.nodeToPeer = make(map[netem.NodeID]int)
		s.net.SetLossStateObserver(s.onLossState)
	}
	if s.cfg.Tracer.Enabled() {
		s.eng.SetFireObserver(func(time.Duration) { s.eventsFired++ })
		s.net.SetFlowObserver(s.onFlowEvent)
	}
	seederNC, leecherNCs, trafficNCs := s.nodePlan()
	seederNode, err := s.net.AddNode(seederNC)
	if err != nil {
		return err
	}
	if s.nodeToPeer != nil {
		s.nodeToPeer[seederNode] = 0
	}
	s.peers = append(s.peers, s.newOrigin(0, seederNode))

	if s.cfg.CDN != nil {
		cdnNode, err := s.net.AddNode(netem.NodeConfig{
			UplinkBytesPerSec:   s.cfg.CDN.BandwidthBytesPerSec,
			DownlinkBytesPerSec: s.cfg.CDN.BandwidthBytesPerSec,
			AccessDelay:         s.cfg.CDN.AccessDelay,
		})
		if err != nil {
			return err
		}
		if s.nodeToPeer != nil {
			s.nodeToPeer[cdnNode] = -1
		}
		// The CDN is tracked outside s.peers: peers[0] must stay the seeder
		// and peers[1:] the leechers for metric collection and churn.
		s.cdn = s.newOrigin(-1, cdnNode)
		s.cdn.isCDN = true
	}

	durations := make([]time.Duration, len(s.segs))
	for i, sg := range s.segs {
		durations[i] = sg.Duration
	}

	for i := 1; i <= len(leecherNCs); i++ {
		nc := leecherNCs[i-1]
		rate := nc.DownlinkBytesPerSec
		node, err := s.net.AddNode(nc)
		if err != nil {
			return err
		}
		if s.nodeToPeer != nil {
			s.nodeToPeer[node] = i
		}
		pl, err := player.New(player.Config{
			SegmentDurations: durations,
			ResumeThreshold:  s.cfg.ResumeBuffer,
		})
		if err != nil {
			return err
		}
		est, err := core.NewBandwidthEstimator(core.DefaultEWMAAlpha)
		if err != nil {
			return err
		}
		p := &peerState{
			id:       i,
			rate:     rate,
			node:     node,
			src:      core.Source{ID: i, Have: make([]bool, len(s.segs)), Sending: make([]int, len(s.segs))},
			player:   pl,
			inFlight: make([]download, len(s.segs)),
			est:      est,
		}
		p.src.Owner = p
		p.done = func(f *netem.Flow) { s.onDownloadComplete(p, f) }
		p.retryFn = func() { s.retry(p) }
		p.pool = core.NewPool(p.src.Have)
		if !s.cfg.DisableRelay {
			p.src.Fetching = p.pool.Fetching
			p.src.Relay = func(idx int) float64 { return s.relayProgress(p, idx) }
		}
		s.peers = append(s.peers, p)

		var join time.Duration
		if s.cfg.JoinSpread > 0 {
			join = time.Duration(s.eng.RNG().Int63n(int64(s.cfg.JoinSpread)))
		}
		s.eng.At(join, func() { s.join(p) })
	}

	srcs := make([]*core.Source, len(s.peers))
	for i, p := range s.peers {
		srcs[i] = &p.src
	}
	s.roster = core.NewRoster(srcs, s.slots)
	for _, p := range s.peers[1:] {
		s.roster.Track(&p.pool, p.id)
	}

	// Cross traffic: unbounded flows from dedicated nodes into leechers.
	for _, nc := range trafficNCs {
		src, err := s.net.AddNode(nc)
		if err != nil {
			return err
		}
		dst := s.peers[1+s.eng.RNG().Intn(len(leecherNCs))].node
		f, err := s.net.StartTransfer(src, dst, 0, netem.TransferOptions{Unbounded: true}, nil)
		if err != nil {
			return err
		}
		s.cross = append(s.cross, f)
	}
	return s.compileFaults()
}

// newOrigin returns a node that holds the whole clip from the start: the
// seeder (id 0) or the CDN (id -1).
func (s *swarm) newOrigin(id int, node netem.NodeID) *peerState {
	have := make([]bool, len(s.segs))
	for i := range have {
		have[i] = true
	}
	p := &peerState{id: id, node: node, isSeeder: true,
		src: core.Source{ID: id, Have: have, WholeClip: true, Sending: make([]int, len(s.segs))}}
	p.src.Owner = p
	return p
}

// join starts a leecher: the viewer presses play, the peer fetches the
// manifest from the seeder, and then downloading begins.
func (s *swarm) join(p *peerState) {
	if s.trackerDown {
		// No tracker, no swarm entry: the join completes when the outage
		// ends (tracker-up drains the queue in arrival order).
		s.deferred = append(s.deferred, func() { s.join(p) })
		return
	}
	p.joined = s.eng.Now()
	if s.cfg.Tracer.Enabled() || s.cfg.Metrics != nil || s.cfg.Series != nil {
		// The observer feeds the trace stream, the QoE histograms, and the
		// windowed time series; any consumer alone needs it attached.
		classify := func(at time.Duration) trace.StallFacts { return s.stallFacts(p, at) }
		p.player.SetObserver(func(tr player.Transition) { s.qoe.Transition(tr, p.id, p.joined, classify) })
	}
	if err := p.player.Start(s.eng.Now()); err != nil {
		panic(fmt.Sprintf("simpeer: start player: %v", err)) // unreachable by construction
	}
	if s.cfg.Churn.MeanOnline > 0 {
		online := time.Duration(s.eng.RNG().ExpFloat64() * float64(s.cfg.Churn.MeanOnline))
		s.eng.Schedule(online, func() { s.depart(p) })
	}
	if _, err := s.net.StartTransfer(s.peers[0].node, p.node, s.manifestBytes, netem.TransferOptions{},
		func(*netem.Flow) {
			if !p.departed {
				s.fill(p)
			}
		}); err != nil {
		panic("simpeer: fetch manifest: " + err.Error()) // unreachable
	}
}

// depart removes a leecher from the swarm (churn).
func (s *swarm) depart(p *peerState) {
	if p.departed || p.isSeeder {
		return
	}
	remaining := 0
	for _, q := range s.peers[1:] {
		if !q.departed {
			remaining++
		}
	}
	if remaining <= s.cfg.Churn.MinRemaining {
		return
	}
	p.departed = true
	s.remark(p)
	s.cancelPeerFlows(p)
	s.fillAll()
}

// cancelPeerFlows severs a peer from the swarm's data plane: its own
// downloads and every upload it was serving are cancelled, returning
// the affected segments to their requesters' pools immediately (no
// timeout wait). Shared by departure (churn) and crash (fault plan).
func (s *swarm) cancelPeerFlows(p *peerState) {
	// Abort this peer's downloads, returning the upload slots it held, in
	// segment order: cancellation order influences event sequencing.
	for idx, d := range p.inFlight {
		if d.src == nil {
			continue
		}
		if d.flow != nil { // pending adversary serves have no flow
			d.flow.Cancel()
		}
		p.dropFlight(idx, s.eng.Now())
	}
	// Abort uploads served by this peer: every other leecher loses any
	// in-flight download sourced here and will re-request elsewhere.
	s.cancelUploadsFrom(p)
}

// cancelUploadsFrom aborts every in-flight download sourced from p,
// returning the affected segments to their requesters' pools. Shared by
// crash/departure teardown and quarantine enforcement (a just-
// quarantined source should not keep serving what selectors would no
// longer assign it).
func (s *swarm) cancelUploadsFrom(p *peerState) {
	for _, q := range s.peers[1:] {
		if q == p || q.departed {
			continue
		}
		for idx, d := range q.inFlight {
			if d.src != p {
				continue
			}
			if d.flow != nil {
				d.flow.Cancel()
			}
			q.dropFlight(idx, s.eng.Now())
		}
	}
}

// fillAll re-runs the scheduling decision for every active leecher, in peer
// order for determinism.
func (s *swarm) fillAll() {
	for _, p := range s.peers[1:] {
		if !p.departed {
			s.fill(p)
		}
	}
}

// collect snapshots the final metrics. Playback can outlive the last network
// event (buffer draining), so metrics are taken far enough in the future for
// every finished download to have played out.
func (s *swarm) collect() *Result {
	end := s.eng.Now()
	var clip time.Duration
	for _, sg := range s.segs {
		clip += sg.Duration
	}
	horizon := end + clip + time.Second
	res := &Result{EndTime: end}
	for _, p := range s.peers[1:] {
		m := p.player.Metrics(horizon)
		res.Peers = append(res.Peers, PeerResult{Peer: p.id, Departed: p.departed, Crashes: p.crashes, Adversarial: p.adversarial, Metrics: m})
		if p.departed {
			res.Departed++
			continue
		}
		if p.crashes > 0 {
			res.Crashed++
			continue
		}
		if p.adversarial {
			// An adversary's own playback measures nothing about the honest
			// swarm (it may even be self-sabotaged); keep it out of Samples.
			res.Adversarial++
			continue
		}
		res.Samples = append(res.Samples, metrics.PlaybackSample{
			Peer:       p.id,
			Startup:    m.StartupTime,
			Stalls:     m.Stalls,
			TotalStall: m.TotalStall,
			Finished:   m.State == player.StateFinished,
		})
	}
	return res
}
