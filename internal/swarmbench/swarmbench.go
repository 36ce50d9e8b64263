// Package swarmbench drives swarm-scale netem workloads for the
// incremental-reallocation benchmarks and the scale determinism tests.
//
// The workload models tracker locality: peers are grouped into clusters
// (the tracker's locality-biased peer lists) and exchange segments only
// within their cluster, seeded by one origin peer per cluster. That keeps
// the flow graph's connected components cluster-sized, which is the
// regime the incremental reallocator is built for — each flow event
// refills one component instead of the whole star. A globally connected
// flow graph degrades the incremental path to component == swarm, i.e.
// full-recompute cost; see DESIGN.md §10 for the honest framing.
//
// A run is split into independent shards, each with its own sim.Engine
// and netem.Network. Shards never share links; they are simulated one
// after another in shard order, and per-shard digests are combined in
// that order.
package swarmbench

import (
	"hash/fnv"
	"math/rand"
	"time"

	"p2psplice/internal/netem"
	"p2psplice/internal/sim"
	"p2psplice/internal/trace"
)

// Swarm-scale telemetry series. Names are distinct from the simpeer
// sim_* set because the quantities differ: these are cluster-exchange
// aggregates, not per-peer playback state.
const (
	// TSCompletions counts completed segment transfers per window.
	TSCompletions = "swarm_completions"
	// TSInflight samples a cluster's in-flight transfer count after each
	// completion refill.
	TSInflight = "swarm_inflight_flows"
	// TSPending samples a cluster's queued-fetch backlog after each
	// completion refill.
	TSPending = "swarm_pending_fetches"
)

// swarmSeries bundles the telemetry handles a shard observes through. All
// handles are nil-safe zero values when telemetry is disabled, so the
// instrumented path executes the same statements either way (the
// inertness contract).
type swarmSeries struct {
	completions trace.TSSeries
	inflight    trace.TSSeries
	pending     trace.TSSeries
}

func newSwarmSeries(ts *trace.TimeSeries) swarmSeries {
	return swarmSeries{
		completions: ts.Counter(TSCompletions),
		inflight:    ts.Gauge(TSInflight),
		pending:     ts.Gauge(TSPending),
	}
}

// Config parameterizes a swarm benchmark run.
type Config struct {
	// Peers is the total peer count across all shards.
	Peers int
	// Shards is the number of independent swarm shards. Each shard gets
	// its own engine and network; 1 means one swarm-wide network (the
	// configuration the full-vs-incremental ratio is measured on).
	Shards int
	// ClusterSize is the tracker-locality cluster size. Default 40.
	ClusterSize int
	// SegmentsPerPeer is how many segments each leecher fetches. Default 4.
	SegmentsPerPeer int
	// SegmentBytes is the size of one fetched segment. Default 256 KiB.
	SegmentBytes int64
	// PoolSize caps concurrent fetches per cluster. Default 8.
	PoolSize int
	// Seed drives every random choice (bandwidth heterogeneity, source
	// selection, fault placement). Same seed, same digest.
	Seed int64
	// FullRealloc forces the reallocateFull baseline on every network.
	FullRealloc bool
	// MaxEvents bounds the per-shard event count; 0 runs to completion.
	// A truncated run sets Result.Truncated instead of failing, so the
	// full-recompute baseline can be sampled without waiting out a full
	// 10k-peer drain.
	MaxEvents int

	// TimeSeriesWindow, when positive, attaches one windowed virtual-time
	// telemetry recorder (completions, in-flight fetches, pending queue
	// depth per window) that every shard observes into. The recorder is a
	// pure observer: the digest is bit-identical with and without it.
	TimeSeriesWindow time.Duration

	// TraceCapacity, when positive, attaches a bounded sampled event
	// counter (trace.Ring) to every shard: completion events pass a pure
	// hash sampler (seeded by the shard seed, never the workload RNG) and
	// are counted against a fixed capacity. Result.Trace accounts for
	// every event — sampled, rejected, or beyond the capacity — so the
	// bound is honest.
	TraceCapacity int
	// TraceSampleRate is the sampler keep probability in [0,1]. Only
	// meaningful with TraceCapacity > 0.
	TraceSampleRate float64
}

func (c *Config) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ClusterSize <= 0 {
		c.ClusterSize = 40
	}
	if c.SegmentsPerPeer <= 0 {
		c.SegmentsPerPeer = 4
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 256 << 10
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
}

// Result aggregates a run. Every field is deterministic in Config.
type Result struct {
	Peers       int
	Shards      int
	Events      uint64        // engine events fired, all shards
	Completed   uint64        // segment transfers completed
	VirtualTime time.Duration // max shard virtual clock
	Stats       netem.AllocStats
	Truncated   bool   // at least one shard hit MaxEvents
	Digest      uint64 // FNV-1a over completion records, shard order

	// Series is the snapshot of the run's one telemetry recorder, taken
	// after every shard finished; nil unless Config.TimeSeriesWindow was
	// set. Behind a pointer so untraced Results stay comparable with ==.
	Series *trace.TSSnapshot
	// Trace sums per-shard ring admission counters; zero unless
	// Config.TraceCapacity was set.
	Trace trace.RingCounts
	// TraceRetained sums each shard ring's Len: the admitted events
	// within its capacity.
	TraceRetained int
}

type shardResult struct {
	events      uint64
	completed   uint64
	virtualTime time.Duration
	stats       netem.AllocStats
	truncated   bool
	digest      uint64
	ring        trace.RingCounts
	retained    int
}

// Run simulates the configured swarm and returns its aggregate result.
func Run(cfg Config) (Result, error) {
	cfg.applyDefaults()
	var ts *trace.TimeSeries
	if cfg.TimeSeriesWindow > 0 {
		ts = trace.NewTimeSeries(cfg.TimeSeriesWindow)
	}
	res := Result{Peers: cfg.Peers, Shards: cfg.Shards}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < cfg.Shards; i++ {
		s, err := runShard(cfg, i, ts)
		if err != nil {
			return Result{}, err
		}
		res.Events += s.events
		res.Completed += s.completed
		if s.virtualTime > res.VirtualTime {
			res.VirtualTime = s.virtualTime
		}
		res.Stats.Reallocs += s.stats.Reallocs
		res.Stats.FullReallocs += s.stats.FullReallocs
		res.Stats.Components += s.stats.Components
		res.Stats.FlowsFilled += s.stats.FlowsFilled
		res.Truncated = res.Truncated || s.truncated
		putUint64(&buf, s.digest)
		h.Write(buf[:])
		res.Trace.Sampled += s.ring.Sampled
		res.Trace.Rejected += s.ring.Rejected
		res.Trace.Dropped += s.ring.Dropped
		res.TraceRetained += s.retained
	}
	res.Digest = h.Sum64()
	if ts != nil {
		snap := ts.Snap()
		res.Series = &snap
	}
	return res, nil
}

func putUint64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}

// cluster tracks one locality cluster's segment exchange.
type cluster struct {
	members []netem.NodeID
	// owners[seg] lists members that hold segment seg, in acquisition
	// order; the origin peer (members[0]) holds everything from t=0.
	owners  [][]netem.NodeID
	pending []fetch // queued (peer, segment) fetches
	active  int
}

type fetch struct {
	peer netem.NodeID
	seg  int
}

// runShard simulates one independent shard to completion (or MaxEvents),
// observing into the run's recorder ts (nil when telemetry is off).
func runShard(cfg Config, shard int, ts *trace.TimeSeries) (shardResult, error) {
	// Deterministic per-shard seeds: shard index offsets the run seed.
	seed := cfg.Seed + int64(shard)*0x9e3779b9
	eng := sim.New(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	net := netem.New(eng)
	if cfg.FullRealloc {
		net.ForceFullReallocation(true)
	}

	var sr shardResult
	eng.SetFireObserver(func(time.Duration) { sr.events++ })

	// Observability attachments. Both are pure observers: neither draws
	// from rng nor feeds the digest, and the sampler hashes the shard
	// seed — not an RNG stream — so verdicts depend on the shard alone.
	ss := newSwarmSeries(ts)
	var ring *trace.Ring
	if cfg.TraceCapacity > 0 {
		ring = trace.NewRing(cfg.TraceCapacity, trace.NewHashSampler(seed, cfg.TraceSampleRate, nil))
	}

	peers := cfg.Peers / cfg.Shards
	if shard < cfg.Peers%cfg.Shards {
		peers++
	}
	if peers < 2 {
		peers = 2
	}

	// ADSL-flavoured heterogeneous access links: a few bandwidth classes,
	// chosen per peer from the shard RNG.
	ids := make([]netem.NodeID, peers)
	for i := range ids {
		up := int64(128+64*rng.Intn(6)) << 10
		down := int64(1+rng.Intn(4)) << 20
		id, err := net.AddNode(netem.NodeConfig{
			UplinkBytesPerSec:   up,
			DownlinkBytesPerSec: down,
			AccessDelay:         time.Duration(5+rng.Intn(40)) * time.Millisecond,
		})
		if err != nil {
			return sr, err
		}
		ids[i] = id
	}

	// A sprinkle of scheduled link flaps (~0.5% of peers) keeps the
	// freeze/unfreeze paths in the measured workload.
	for i := range ids {
		if rng.Intn(200) != 0 {
			continue
		}
		id, at := ids[i], time.Duration(1+rng.Intn(30))*time.Second
		eng.At(at, func() { _ = net.SetLinkDown(id, true) })
		eng.At(at+2*time.Second, func() { _ = net.SetLinkDown(id, false) })
	}

	// Partition into clusters and queue every leecher's fetches in a
	// shard-deterministic shuffled order.
	var clusters []*cluster
	for lo := 0; lo < peers; lo += cfg.ClusterSize {
		hi := lo + cfg.ClusterSize
		if hi > peers {
			hi = peers
		}
		if hi-lo < 2 {
			break // a 1-peer tail cluster has nothing to exchange
		}
		c := &cluster{members: ids[lo:hi], owners: make([][]netem.NodeID, cfg.SegmentsPerPeer)}
		for seg := range c.owners {
			c.owners[seg] = append(c.owners[seg], c.members[0])
		}
		for _, m := range c.members[1:] {
			for seg := 0; seg < cfg.SegmentsPerPeer; seg++ {
				c.pending = append(c.pending, fetch{peer: m, seg: seg})
			}
		}
		rng.Shuffle(len(c.pending), func(i, j int) {
			c.pending[i], c.pending[j] = c.pending[j], c.pending[i]
		})
		clusters = append(clusters, c)
	}

	h := fnv.New64a()
	var buf [8]byte
	record := func(v uint64) {
		putUint64(&buf, v)
		h.Write(buf[:])
	}

	var shardErr error
	var pump func(c *cluster)
	pump = func(c *cluster) {
		for c.active < cfg.PoolSize && len(c.pending) > 0 {
			fe := c.pending[0]
			c.pending = c.pending[1:]
			src := c.owners[fe.seg][rng.Intn(len(c.owners[fe.seg]))]
			_, err := net.StartTransfer(src, fe.peer, cfg.SegmentBytes, netem.TransferOptions{}, func(f *netem.Flow) {
				c.active--
				sr.completed++
				c.owners[fe.seg] = append(c.owners[fe.seg], fe.peer)
				record(uint64(f.ID()))
				record(uint64(eng.Now()))
				record(uint64(fe.peer)<<32 | uint64(fe.seg))
				now := eng.Now()
				ss.completions.Observe(now, 1)
				if ring != nil {
					ring.Emit(trace.Event{
						At:   now,
						Peer: int(fe.peer),
						Seg:  fe.seg,
						Cat:  trace.CatFlow,
						Name: trace.EvFlowComplete,
					})
				}
				pump(c)
				// Post-refill pool depth and backlog, mirroring simpeer's
				// post-fill inflight sample.
				ss.inflight.Observe(now, int64(c.active))
				ss.pending.Observe(now, int64(len(c.pending)))
			})
			if err != nil {
				// A fetch from an owner it just picked cannot self-transfer
				// or overflow; any error here is a harness bug worth failing.
				shardErr = err
				return
			}
			c.active++
		}
	}

	for _, c := range clusters {
		pump(c)
	}

	if err := eng.Run(cfg.MaxEvents); err != nil {
		// Budget exhaustion is the sampling mode, not a failure.
		sr.truncated = true
	}
	if shardErr != nil {
		return sr, shardErr
	}

	sr.virtualTime = eng.Now()
	sr.stats = net.AllocStats()
	record(uint64(sr.virtualTime))
	sr.digest = h.Sum64()
	if ring != nil {
		sr.ring = ring.Counts()
		sr.retained = ring.Len()
	}
	return sr, nil
}
