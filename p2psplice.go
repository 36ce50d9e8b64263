// Package p2psplice is a library for studying and deploying video splicing
// techniques in peer-to-peer video streaming. It reproduces the system from
// "Video Splicing Techniques for P2P Video Streaming" (Islam & Khan,
// ICDCS 2015): GOP-based and duration-based splicers, the adaptive
// download-pooling formula k = max(floor(B*T/W), 1), a BitTorrent-like
// swarm over real TCP, a deterministic testbed emulation for experiments,
// and a hybrid CDN mode with W <= B*T segment sizing.
//
// The package re-exports the library's building blocks so downstream users
// need only this import:
//
//	video, _  := p2psplice.Synthesize(p2psplice.DefaultEncoderConfig(), 2*time.Minute, 42)
//	segments, _ := p2psplice.SpliceByDuration(video, 4*time.Second)
//	manifest, blobs, _ := p2psplice.BuildManifest(video, "4s", segments)
//
// Real swarms run over TCP (Tracker/Seed/Join); experiments run on the
// deterministic emulator (RunSwarm, Experiments).
package p2psplice

import (
	"fmt"
	"net/http"
	"time"

	"p2psplice/internal/cdn"
	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/debughttp"
	"p2psplice/internal/experiment"
	"p2psplice/internal/media"
	"p2psplice/internal/peer"
	"p2psplice/internal/player"
	"p2psplice/internal/shaper"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
	"p2psplice/internal/wire"
)

// Synthetic video (internal/media).
type (
	// EncoderConfig configures the synthetic MPEG-4-like encoder.
	EncoderConfig = media.EncoderConfig
	// SceneModel drives the GOP-duration distribution.
	SceneModel = media.SceneModel
	// Video is a synthesized clip.
	Video = media.Video
	// Frame is one coded picture.
	Frame = media.Frame
	// GOP is a closed group of pictures.
	GOP = media.GOP
)

// DefaultEncoderConfig returns the paper's 1 Mbps clip configuration.
func DefaultEncoderConfig() EncoderConfig { return media.DefaultEncoderConfig() }

// Synthesize encodes a deterministic synthetic clip.
func Synthesize(cfg EncoderConfig, duration time.Duration, seed int64) (*Video, error) {
	return media.Synthesize(cfg, duration, seed)
}

// Splicing (internal/splicer).
type (
	// Splicer cuts a clip into segments.
	Splicer = splicer.Splicer
	// Segment is one spliced piece.
	Segment = splicer.Segment
	// GOPSplicer emits one segment per closed GOP.
	GOPSplicer = splicer.GOPSplicer
	// DurationSplicer cuts fixed-duration, frame-accurate segments.
	DurationSplicer = splicer.DurationSplicer
	// AdaptiveSplicer derives the duration target from W <= B*T.
	AdaptiveSplicer = splicer.AdaptiveSplicer
)

// SpliceByDuration cuts v into fixed-duration segments, re-encoding the
// first frame of each mid-GOP cut as an I frame.
func SpliceByDuration(v *Video, target time.Duration) ([]Segment, error) {
	return splicer.DurationSplicer{Target: target}.Splice(v)
}

// Container & manifest (internal/container).
type (
	// Manifest is the published playlist with per-segment checksums.
	Manifest = container.Manifest
	// ClipInfo is the manifest's clip metadata.
	ClipInfo = container.ClipInfo
	// SegmentInfo is one manifest entry.
	SegmentInfo = container.SegmentInfo
)

// BuildManifest materializes segments into wire containers and a manifest.
func BuildManifest(v *Video, splicing string, segs []Segment) (*Manifest, [][]byte, error) {
	info := container.ClipInfo{
		Duration:       v.Duration(),
		BytesPerSecond: v.Config.BytesPerSecond,
		Seed:           v.Seed,
	}
	return container.BuildManifest(info, splicing, segs)
}

// Download policies (internal/core) — the paper's contribution.
type (
	// Policy decides how many segments to download simultaneously.
	Policy = core.Policy
	// AdaptivePool is Equation 1: k = max(floor(B*T/W), 1).
	AdaptivePool = core.AdaptivePool
	// FixedPool always keeps K downloads in flight.
	FixedPool = core.FixedPool
)

// Playback (internal/player).
type (
	// PlayerMetrics is a snapshot of startup/stall measures.
	PlayerMetrics = player.Metrics
	// PlayerState is the playback state.
	PlayerState = player.State
)

// Emulated experiments (internal/simpeer, internal/experiment).
type (
	// SwarmConfig configures one deterministic emulated run.
	SwarmConfig = simpeer.SwarmConfig
	// SwarmResult is the outcome of an emulated run.
	SwarmResult = simpeer.Result
	// SegmentMeta is the emulation's view of one segment.
	SegmentMeta = simpeer.SegmentMeta
	// ChurnModel makes emulated leechers depart mid-swarm.
	ChurnModel = simpeer.ChurnModel
	// CDNAssist adds the Section IV hybrid CDN to an emulated swarm.
	CDNAssist = simpeer.CDNAssist
	// ExperimentParams parameterizes the paper's figure sweeps.
	ExperimentParams = experiment.Params
	// FigureResult is a rendered figure plus raw series.
	FigureResult = experiment.FigureResult
)

// RunSwarm executes one deterministic emulated swarm.
func RunSwarm(cfg SwarmConfig, segs []SegmentMeta) (*SwarmResult, error) {
	return simpeer.RunSwarm(cfg, segs)
}

// SegmentsForSwarm converts spliced segments into emulation metadata,
// accounting for container framing on the wire.
func SegmentsForSwarm(segs []Segment) []SegmentMeta {
	return experiment.SegmentsForSwarm(segs)
}

// QuickParams returns a scaled-down experiment setup for smoke runs.
func QuickParams() ExperimentParams { return experiment.QuickParams() }

// Real TCP swarm (internal/tracker, internal/peer).
type (
	// Tracker is the rendezvous service.
	Tracker = tracker.Server
	// TrackerClient talks to a tracker.
	TrackerClient = tracker.Client
	// Node is a real swarm member.
	Node = peer.Node
	// NodeConfig configures a node.
	NodeConfig = peer.Config
	// InfoHash identifies a swarm.
	InfoHash = wire.InfoHash
	// LinkShape shapes a node's connections (bandwidth/latency).
	LinkShape = shaper.Config
)

// NewTracker returns a tracker; mount its Handler on an http.Server.
func NewTracker() *Tracker { return tracker.NewServer() }

// Telemetry (internal/trace, internal/debughttp).
type (
	// MetricsRegistry accumulates counters, gauges, and histograms.
	// Assign one to NodeConfig.Metrics to instrument a node; render it
	// with WriteText (human) or WriteProm (Prometheus exposition).
	MetricsRegistry = trace.Registry
	// DebugConfig configures StartDebug.
	DebugConfig = debughttp.Config
	// DebugServer serves /metrics, /healthz, and /debug/pprof.
	DebugServer = debughttp.Server
)

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return trace.NewRegistry() }

// NewTrackerWithMetrics returns a tracker whose request counters and
// swarm gauge record into reg.
func NewTrackerWithMetrics(reg *MetricsRegistry) *Tracker {
	return tracker.NewServer(tracker.WithMetrics(reg))
}

// StartDebug serves the operational debug endpoint until Close.
func StartDebug(cfg DebugConfig) (*DebugServer, error) { return debughttp.Start(cfg) }

// NewTrackerClient returns a client for the tracker at base URL.
func NewTrackerClient(base string, httpClient *http.Client) *TrackerClient {
	return tracker.NewClient(base, httpClient)
}

// Seed publishes a manifest and serves its segments. The node serves the
// blobs themselves, not a copy: the caller must not write to them after
// Seed.
func Seed(trk *TrackerClient, m *Manifest, blobs [][]byte, cfg NodeConfig) (*Node, error) {
	return peer.Seed(trk, m, blobs, cfg)
}

// Join downloads and plays the identified clip.
func Join(trk *TrackerClient, infoHash InfoHash, cfg NodeConfig) (*Node, error) {
	return peer.Join(trk, infoHash, cfg)
}

// Hybrid CDN (internal/cdn).
type (
	// CDNOrigin serves spliced segments over HTTP.
	CDNOrigin = cdn.Origin
	// CDNClient streams with duration-adaptive fetching (W <= B*T).
	CDNClient = cdn.Client
	// CDNChoice is one variant-selection decision.
	CDNChoice = cdn.Choice
)

// NewCDNOrigin returns an empty origin; add splicing variants and mount its
// Handler.
func NewCDNOrigin() *CDNOrigin { return cdn.NewOrigin() }

// NewCDNClient returns a duration-adaptive streaming client.
func NewCDNClient(base string, httpClient *http.Client) *CDNClient {
	return cdn.NewClient(base, httpClient)
}

// Version is the library version.
const Version = "1.0.0"

// BuildSwarmData is a convenience that synthesizes, splices, and packages a
// clip in one call, returning everything a Seed needs.
func BuildSwarmData(cfg EncoderConfig, clip time.Duration, seed int64, sp Splicer) (*Video, *Manifest, [][]byte, error) {
	v, err := media.Synthesize(cfg, clip, seed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("p2psplice: synthesize: %w", err)
	}
	segs, err := sp.Splice(v)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("p2psplice: splice: %w", err)
	}
	m, blobs, err := BuildManifest(v, sp.Name(), segs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("p2psplice: package: %w", err)
	}
	return v, m, blobs, nil
}

// OptimalSegmentDuration picks, for a clip and an expected bandwidth, the
// segment duration that minimizes viewer-visible waiting: the smallest
// duration whose overhead-inflated demand fits within safety*bandwidth (see
// EXPERIMENTS.md Figure 6). This is the algorithm the paper leaves as
// future work.
func OptimalSegmentDuration(v *Video, bandwidth int64, requestLag time.Duration, safety float64) (time.Duration, error) {
	return splicer.OptimalDuration(v, bandwidth, requestLag, safety)
}
