package main

import (
	"math/rand"
	"time"

	"p2psplice/internal/sim"
	"p2psplice/internal/swarmbench"
)

// netemClustered is the BENCH_10 workload at four times the peers.
var netemClustered = workload{
	name: "netem_clustered",
	why: "swarmbench's locality-clustered swarm on one shard: the only workload where sim's event heap and " +
		"netem's incremental max-min allocator do most of the work and simpeer does none.",
	warmup:  1,
	minReps: 3,
	rep:     netemRep,
	probes:  netemProbes,
}

// The pinned calibration run every repetition's set-up makes: BENCH_10's
// configuration, whose digest must not move.
const (
	calibrationPeers  = 10_000
	calibrationSeed   = 7
	calibrationDigest = 0x3f085421a8ad2c67
)

const (
	netemClusterSize = 40
	netemSegsPerPeer = 4
)

func netemPeers(smoke bool) int {
	if smoke {
		return 400
	}
	return 40_000
}

// netemTransfers is how many segment transfers a swarm of peers must
// complete: every member of a cluster but its origin fetches every
// segment, and a one-peer tail cluster has nothing to exchange.
func netemTransfers(peers int) int {
	n := (peers / netemClusterSize) * (netemClusterSize - 1)
	if tail := peers % netemClusterSize; tail >= 2 {
		n += tail - 1
	}
	return n * netemSegsPerPeer
}

func netemRep(rc *repCtx) rep {
	peers := netemPeers(rc.smoke)
	r := rep{Attempted: netemTransfers(peers)}

	// Set-up: the calibration run. swarmbench builds its topology inside
	// Run, so there is no separate input to build; this is the work done
	// before the timed region, and it pins the digest BENCH_10 recorded.
	t0 := time.Now()
	setup := rc.span("setup")
	calPeers := calibrationPeers
	if rc.smoke {
		calPeers = peers
	}
	cal, err := swarmbench.Run(swarmbench.Config{Peers: calPeers, Shards: 1, Seed: calibrationSeed})
	rc.spans.end(setup)
	r.SetupS = time.Since(t0).Seconds()
	if err != nil {
		r.problemf("netem_clustered: calibration run: %v", err)
	} else if !rc.smoke && cal.Digest != calibrationDigest {
		r.problemf("netem_clustered: %d-peer digest %016x, BENCH_10 recorded %016x", calPeers, cal.Digest, uint64(calibrationDigest))
	}

	cfg := swarmbench.Config{
		Peers: peers, Shards: 1, Seed: 6 + rc.seed,
		ClusterSize: netemClusterSize, SegmentsPerPeer: netemSegsPerPeer,
		// A run needs about 21 events per peer; a budget far beyond that
		// turns a livelock into failed transfers.
		MaxEvents: 500 * peers,
	}
	if rc.traced {
		// The windowed recorder and the bounded sampled ring, as
		// cmd/benchswarm attaches them.
		cfg.TimeSeriesWindow = time.Second
		cfg.TraceCapacity = 65_536
		cfg.TraceSampleRate = 0.25
	}
	var res swarmbench.Result
	run := rc.span("run")
	rc.timed(&r, func() {
		id := rc.spans.start(run, "swarmbench.run")
		res, err = swarmbench.Run(cfg)
		rc.spans.end(id)
	})
	rc.spans.end(run)
	if err != nil {
		r.Failed = r.Attempted
		r.problemf("netem_clustered: %v", err)
		return r
	}
	if res.Truncated {
		r.problemf("netem_clustered: event budget exhausted after %d events", res.Events)
	}
	r.Failed = max(0, r.Attempted-int(res.Completed))

	r.setExact("netem.digest", res.Digest)
	counts := map[string]uint64{
		"netem.events":              res.Events,
		"netem.reallocs":            res.Stats.Reallocs,
		"netem.components":          res.Stats.Components,
		"netem.flows_filled":        res.Stats.FlowsFilled,
		"netem.completed_transfers": res.Completed,
	}
	for name, v := range counts {
		r.setExact(name, v)
		if rc.traced {
			r.setLayer(name, float64(v))
		}
	}
	if rc.traced {
		r.setLayer("netem.events_per_s", float64(res.Events)/r.WallS)
		r.setLayer("netem.reallocs_per_s", float64(res.Stats.Reallocs)/r.WallS)
		if res.Stats.Reallocs > 0 {
			r.setLayer("netem.flows_filled_per_realloc", float64(res.Stats.FlowsFilled)/float64(res.Stats.Reallocs))
		}
	}
	return r
}

// netemProbes isolates sim's event heap from netem.
func netemProbes(rc *repCtx) map[string]float64 {
	id := rc.spans.start(0, "probe.sim")
	defer rc.spans.end(id)
	total := 1_000_000
	if rc.smoke {
		total = 50_000
	}
	return map[string]float64{"sim.probe_events_per_s": simProbe(rc.seed, total)}
}

// simProbe drives sim.Engine directly: total seeded Schedules, one in
// ten cancelled, about 64k pending at a time, then Run. It returns
// scheduled events per second of wall time.
func simProbe(seed int64, total int) float64 {
	const pending = 64 << 10
	eng := sim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	scheduled := 0
	var schedule func()
	schedule = func() {
		scheduled++
		t := eng.Schedule(time.Duration(1+rng.Intn(1_000_000))*time.Microsecond, func() {
			if scheduled < total {
				schedule()
			}
		})
		if rng.Intn(10) == 0 {
			t.Cancel()
			if scheduled < total {
				schedule() // a cancelled event never fires, so it replaces itself now
			}
		}
	}
	t0 := time.Now()
	for i := 0; i < pending && scheduled < total; i++ {
		schedule()
	}
	if err := eng.Run(0); err != nil {
		return 0 // an unbounded Run cannot exhaust a budget
	}
	return float64(scheduled) / time.Since(t0).Seconds()
}
