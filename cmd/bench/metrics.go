package main

// metricDef describes one metric the benchmark reports. BENCHMARK.json
// and the README list the same metrics; a test keeps the three in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression; floor is
	// the absolute change below which it never does. Per-layer metrics
	// have neither.
	bound float64
	floor float64
	// exact marks a count that must repeat bit for bit across
	// repetitions and sets; -compare tests it for equality.
	exact bool
}

// endToEnd are measured with tracing, registries and the profiler off.
// The bounds are the ones two acceptance sets on one commit support
// (README.md, "Bounds").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.050},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, floor: 0.020},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25, floor: 0.050},
}

// perLayer are measured in the traced pass only. A metric a workload
// does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, l := range repoLayers {
		defs = append(defs, metricDef{name: l + ".self_cpu_s", unit: "s", better: "lower"})
	}
	for _, b := range stdBuckets {
		defs = append(defs, metricDef{name: b + ".self_cpu_s", unit: "s", better: "lower"})
	}
	lower := func(name, unit string) { defs = append(defs, metricDef{name: name, unit: unit, better: "lower"}) }
	higher := func(name, unit string) { defs = append(defs, metricDef{name: name, unit: unit, better: "higher"}) }
	count := func(name string) {
		defs = append(defs, metricDef{name: name, unit: "count", better: "lower", exact: true})
	}

	higher("profile.samples", "count")
	higher("profile.coverage", "ratio")

	for _, f := range figureCalls {
		lower("experiment."+f.key+"_s", "s")
	}
	higher("experiment.worker_utilisation", "ratio")

	count("simpeer.segments_done")
	count("simpeer.pool_decisions")
	count("simpeer.stalls")
	higher("simpeer.peer_segments_per_s", "1/s")

	count("netem.events")
	count("netem.reallocs")
	count("netem.components")
	count("netem.flows_filled")
	count("netem.completed_transfers")
	higher("netem.events_per_s", "1/s")
	higher("netem.reallocs_per_s", "1/s")
	lower("netem.flows_filled_per_realloc", "ratio")
	higher("sim.probe_events_per_s", "1/s")

	lower("media.synthesize_s", "s")
	lower("splicer.splice_s", "s")
	lower("container.build_s", "s")
	higher("container.build_mb_per_s", "MB/s")
	higher("container.verify_mb_per_s", "MB/s")
	higher("container.decode_mb_per_s", "MB/s")

	higher("wire.probe_msgs_per_s", "1/s")
	higher("wire.probe_mb_per_s", "MB/s")
	lower("wire.probe_allocs_per_msg", "ratio")

	higher("peer.goodput_mbps", "Mbit/s")
	lower("peer.cpu_s_per_gb", "s/GB")
	lower("peer.segment_ms_p50", "ms")
	lower("peer.segment_ms_p99", "ms")
	higher("peer.pool_k_p50", "count")
	lower("peer.sched_calls", "count")
	lower("peer.sched_launches", "count")
	lower("peer.launches_per_segment", "ratio")
	lower("peer.blocks_rx", "count")
	lower("peer.bytes_rx", "count")
	lower("peer.duplicate_bytes_share", "ratio")
	lower("peer.seeder_upload_share", "ratio")
	lower("peer.verify_failures", "count")
	lower("peer.downloads_expired", "count")
	lower("peer.dial_failures", "count")

	lower("tracker.announces", "count")
	lower("tracker.announce_errors", "count")
	lower("tracker.announce_rtt_ms_p50", "ms")

	lower("player.startup_ms_p50", "ms")
	lower("player.startup_ms_max", "ms")
	lower("player.stalls", "count")
	lower("player.stall_s", "s")
	higher("shaper.link_utilisation", "ratio")

	lower("trace.overhead_share", "ratio")
	lower("runtime.alloc_mb", "MB")
	lower("runtime.gc_cycles", "count")
	lower("runtime.peak_rss_mb", "MB")
	return defs
}

// findMetric looks a metric up by name in both lists.
func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
