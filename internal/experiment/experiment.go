// Package experiment regenerates the paper's evaluation: the Figures
// registry lists every figure, each a sweep of the parameters Section V
// describes (or of an extension axis: churn, burst loss, adversaries, the
// ablation arms) rendered as the series the paper plots, all run by one
// driver (runner.go); Sweep is the emulated half of cmd/experiment -real.
// Absolute numbers are model-specific; the harness exists to reproduce the
// figures' shapes (who wins, by how much, where the crossovers fall).
package experiment

import (
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/media"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// Params holds the experiment-wide knobs. The zero value is not useful;
// start from DefaultParams (the paper's setup) or QuickParams (a scaled-down
// variant for tests).
type Params struct {
	// ClipDuration is the video length (paper: 2 minutes).
	ClipDuration time.Duration
	// Encoder configures the synthetic clip (paper: 1 Mbps MPEG-4).
	Encoder media.EncoderConfig
	// VideoSeed fixes the synthetic clip.
	VideoSeed int64
	// Leechers is the number of viewers (paper: 19, plus the seeder = 20).
	Leechers int
	// Runs is the number of repetitions per sweep point; results are the
	// rounded average, as in the paper.
	Runs int
	// BaseSeed seeds run r of a sweep point with BaseSeed + r.
	BaseSeed int64
	// JoinSpread staggers viewer joins (viewers do not press play in the
	// same millisecond).
	JoinSpread time.Duration
	// Workers bounds the runner's worker pool: every (series × bandwidth ×
	// run) cell of a figure is an independent job. 0 means GOMAXPROCS;
	// 1 forces the serial path. Results are bit-identical either way
	// (each cell owns its seed; see runner.go).
	Workers int
	// TraceDir, when non-empty, attaches a tracer to every cell and writes
	// one JSONL event log per cell into the directory,
	// <label>-bw<N>-run<R>.jsonl; stall timelines, reports and windowed
	// series are rebuilt from it (`splicetrace report`, `timeseries`).
	// Tracing is observational only; figure values are bit-identical with
	// TraceDir set or empty (DESIGN.md §8).
	TraceDir string
	// Metrics, when non-nil, attaches this registry to every cell's swarm:
	// the QoE histograms (startup, per-cause stall durations, segment
	// latency/bytes labeled by splicing scheme, pool sizes) accumulate
	// across the whole sweep. Like TraceDir it is observational only;
	// figure values are bit-identical with it set or nil
	// (TestMetricsAreInert). The registry's atomic instruments make the
	// shared accumulation safe — and, because histogram totals are exact
	// integer sums, deterministic — under the parallel runner.
	Metrics *trace.Registry
}

// DefaultParams mirrors the paper's Section V setup.
func DefaultParams() Params {
	return Params{
		ClipDuration: 2 * time.Minute,
		Encoder:      media.DefaultEncoderConfig(),
		VideoSeed:    42,
		Leechers:     19,
		Runs:         3,
		BaseSeed:     1000,
		JoinSpread:   5 * time.Second,
	}
}

// QuickParams is a scaled-down variant (shorter clip, fewer peers, one run)
// for tests and smoke benchmarks. The shapes survive the scaling.
func QuickParams() Params {
	p := DefaultParams()
	p.ClipDuration = 40 * time.Second
	p.Leechers = 6
	p.Runs = 1
	p.JoinSpread = 3 * time.Second
	return p
}

// Video returns the experiment clip, synthesizing it on first use and
// serving it from the process-wide cache afterwards (synthesis is a pure
// function of the encoder config, duration, and seed). The returned video
// is shared — treat it as read-only, as every splicer does.
func (p Params) Video() (*media.Video, error) {
	return cachedVideo(p.videoKey())
}

// Segments splices the experiment clip with sp and returns the swarm-level
// segment metadata, with wire sizes accounting for the container framing.
// Results are memoized process-wide by (encoder config, clip duration,
// video seed, splicer identity); each call returns a fresh copy of the
// cached slice, so callers never alias each other's state.
func (p Params) Segments(sp splicer.Splicer) ([]simpeer.SegmentMeta, error) {
	return cachedSegments(segKey{video: p.videoKey(), splicerID: splicerIdentity(sp)}, sp)
}

// The paper's link loss and a VLC-like player's rebuffering depth: every
// cell runs these (Figure 4 turns the loss off in its own hook).
const (
	lossRate     = 0.05
	resumeBuffer = 6 * time.Second
)

// swarmConfig assembles the common swarm configuration.
func (p Params) swarmConfig(bandwidthKB int64, policy core.Policy, seed int64) simpeer.SwarmConfig {
	return simpeer.SwarmConfig{
		Seed:                 seed,
		Leechers:             p.Leechers,
		BandwidthBytesPerSec: bandwidthKB * 1024,
		PeerAccessDelay:      25 * time.Millisecond,
		SeederAccessDelay:    25 * time.Millisecond,
		LossRate:             lossRate,
		Policy:               policy,
		OracleBandwidth:      true,
		JoinSpread:           p.JoinSpread,
		ResumeBuffer:         resumeBuffer,
	}
}

// Point is one sweep measurement: the paper's three playback measures,
// averaged over leechers and runs.
type Point struct {
	BandwidthKB  int64
	Stalls       float64
	StallSeconds float64
	StartupSecs  float64
}

// Sweep runs one series over the bandwidth axis, fanning the (bandwidth ×
// run) cells out on the worker pool.
func (p Params) Sweep(sp splicer.Splicer, policy core.Policy, bandwidthsKB []int64,
	mod func(*simpeer.SwarmConfig)) ([]Point, error) {
	points, err := p.points([]row{p.sweepRow(sp.Name(), "sweep/"+sp.Name(), sp, policy, mod, bandwidthsKB)},
		len(bandwidthsKB))
	if err != nil {
		return nil, err
	}
	return points[0], nil
}

// FigureResult is a rendered figure plus its raw series for assertions.
type FigureResult struct {
	Figure Table
	// Values maps series name to per-x numeric values.
	Values map[string][]float64
}
