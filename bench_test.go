package p2psplice

// Benchmark harness: one benchmark per paper figure (the code that
// regenerates each table/series), ablation benches for the design choices
// DESIGN.md calls out, and micro-benchmarks for the hot paths.
//
// The figure benches run the sweeps at a reduced scale per iteration and
// report the headline quantity via b.ReportMetric so `go test -bench .`
// doubles as a smoke reproduction. Full-scale numbers live in
// EXPERIMENTS.md and come from `go run ./cmd/experiment`.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/experiment"
	"p2psplice/internal/media"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
	"p2psplice/internal/swarmbench"
	"p2psplice/internal/wire"
)

// benchParams is the per-iteration experiment scale.
func benchParams() experiment.Params {
	p := experiment.QuickParams()
	p.ClipDuration = 40 * time.Second
	p.Leechers = 6
	return p
}

// --- Figure benches -------------------------------------------------------

// BenchmarkFig2StallsBySplicing regenerates Figure 2 (total stalls per
// splicing technique across the bandwidth sweep).
func BenchmarkFig2StallsBySplicing(b *testing.B) {
	p := benchParams()
	var last *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		res, err := p.Fig2Stalls([]int64{128, 512})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Values["2s"][0], "stalls@128kBps(2s)")
	b.ReportMetric(last.Values["4s"][0], "stalls@128kBps(4s)")
}

// BenchmarkFig3StallDuration regenerates Figure 3 (total stall duration).
func BenchmarkFig3StallDuration(b *testing.B) {
	p := benchParams()
	var last *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		res, err := p.Fig3StallDuration([]int64{128, 512})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Values["gop"][0], "stallSec@128kBps(gop)")
}

// BenchmarkFig4StartupTime regenerates Figure 4 (startup time by segment
// duration and bandwidth).
func BenchmarkFig4StartupTime(b *testing.B) {
	p := benchParams()
	var last *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		res, err := p.Fig4Startup([]int64{128, 1024})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Values["2s"][0], "startupSec@128kBps(2s)")
	b.ReportMetric(last.Values["8s"][0], "startupSec@128kBps(8s)")
}

// BenchmarkFig5DownloadPolicies regenerates Figure 5 (adaptive pooling vs
// fixed pools).
func BenchmarkFig5DownloadPolicies(b *testing.B) {
	p := benchParams()
	var last *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		res, err := p.Fig5Pooling([]int64{128, 512})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Values["adaptive"][0], "stalls@128kBps(adaptive)")
	b.ReportMetric(last.Values["pool-8"][0], "stalls@128kBps(pool-8)")
}

// BenchmarkFig2StallsSerial is BenchmarkFig2StallsBySplicing pinned to the
// Workers=1 serial path; the pair measures the worker pool's speedup on
// multi-core hardware (results are bit-identical either way — see the
// equivalence tests in internal/experiment).
func BenchmarkFig2StallsSerial(b *testing.B) {
	p := benchParams()
	p.Workers = 1
	var last *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		res, err := p.Fig2Stalls([]int64{128, 512})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Values["2s"][0], "stalls@128kBps(2s)")
}

// BenchmarkSegmentsCached measures the memoized Segments path: after the
// first iteration every call is a cache hit plus one defensive copy.
func BenchmarkSegmentsCached(b *testing.B) {
	p := benchParams()
	sp := splicer.DurationSplicer{Target: 4 * time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Segments(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches ------------------------------------------------------

// BenchmarkAblation runs each arm of the registry's ablation figure, one
// sub-benchmark per arm, and reports its 256 kB/s stalls and startup.
func BenchmarkAblation(b *testing.B) {
	p := benchParams()
	for _, arm := range experiment.Ablations() {
		b.Run(arm.Name, func(b *testing.B) {
			var last *experiment.FigureResult
			for i := 0; i < b.N; i++ {
				res, err := p.FigAblation([]experiment.Ablation{arm})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Values["stalls@256"][0], "stalls@256kBps")
			b.ReportMetric(last.Values["startup s@256"][0], "startupSec@256kBps")
		})
	}
}

// --- Micro-benchmarks ------------------------------------------------------

func benchVideo(b *testing.B) *media.Video {
	b.Helper()
	v, err := media.Synthesize(media.DefaultEncoderConfig(), 2*time.Minute, 42)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkSynthesize2MinClip(b *testing.B) {
	cfg := media.DefaultEncoderConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := media.Synthesize(cfg, 2*time.Minute, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpliceGOP(b *testing.B) {
	v := benchVideo(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (splicer.GOPSplicer{}).Splice(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpliceDuration4s(b *testing.B) {
	v := benchVideo(b)
	sp := splicer.DurationSplicer{Target: 4 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Splice(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerEncodeDecode(b *testing.B) {
	v := benchVideo(b)
	segs, err := splicer.DurationSplicer{Target: 4 * time.Second}.Splice(v)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := container.Build(segs[0], v.Seed)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := container.EncodeBytes(cs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := container.EncodeBytes(cs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := container.DecodeBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManifestBuild(b *testing.B) {
	v := benchVideo(b)
	segs, err := splicer.DurationSplicer{Target: 4 * time.Second}.Splice(v)
	if err != nil {
		b.Fatal(err)
	}
	info := container.ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := container.BuildManifest(info, "4s", segs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWirePieceRoundTrip(b *testing.B) {
	data := bytes.Repeat([]byte{0xAB}, wire.DefaultBlockLen)
	msg := &wire.Message{Type: wire.MsgPiece, Index: 1, Offset: 0, Data: data}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var buf bytes.Buffer
	wr, rd := wire.NewWriter(&buf), wire.NewReader(&buf)
	var got wire.Message
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wr.WriteMsg(msg); err != nil {
			b.Fatal(err)
		}
		if err := rd.ReadInto(&got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamLoopback streams a 120 s clip at 1 MiB/s, spliced into
// 2 s segments, from a seeder to two viewers over loopback TCP, each
// iteration with a fresh in-process tracker: the real stack's unit of
// work, as cmd/bench's stream_loopback workload runs it. The clip is
// published before the timer starts. `make profile-stream` profiles it.
func BenchmarkStreamLoopback(b *testing.B) {
	enc := DefaultEncoderConfig()
	enc.BytesPerSecond = 1 << 20
	_, m, blobs, err := BuildSwarmData(enc, 120*time.Second, 42, DurationSplicer{Target: 2 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	cfg := NodeConfig{AnnounceInterval: 200 * time.Millisecond}
	b.SetBytes(2 * m.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streamOnce(b, m, blobs, cfg)
	}
}

// streamOnce runs one tracker, one seeder and two viewers until both
// viewers hold every segment, then closes them all.
func streamOnce(b *testing.B, m *Manifest, blobs [][]byte, cfg NodeConfig) {
	srv := httptest.NewServer(NewTracker().Handler())
	defer srv.Close()
	trk := NewTrackerClient(srv.URL, srv.Client())
	seeder, err := Seed(trk, m, blobs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer seeder.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var viewers [2]*Node
	for i := range viewers {
		if viewers[i], err = Join(trk, seeder.InfoHash(), cfg); err != nil {
			b.Fatal(err)
		}
		defer viewers[i].Close()
	}
	for i, v := range viewers {
		if err := v.WaitComplete(ctx); err != nil {
			b.Fatalf("viewer %d: %v", i, err)
		}
	}
}

func BenchmarkEquation1PoolSize(b *testing.B) {
	p := core.AdaptivePool{}
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += p.PoolSize(512*1024, 4*time.Second, 512*1024)
	}
	if sink == 0 {
		b.Fatal("unreachable")
	}
}

// BenchmarkSwarmEmulationPaperScale runs one full-scale emulated run
// (19 leechers, 2-minute clip) per iteration — the unit of work behind
// every figure data point.
func BenchmarkSwarmEmulationPaperScale(b *testing.B) {
	p := experiment.DefaultParams()
	segs, err := p.Segments(splicer.DurationSplicer{Target: 4 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := simpeer.SwarmConfig{
			Seed:                 int64(i + 1),
			Leechers:             19,
			BandwidthBytesPerSec: 256 * 1024,
			PeerAccessDelay:      25 * time.Millisecond,
			SeederAccessDelay:    25 * time.Millisecond,
			LossRate:             0.05,
			Policy:               core.AdaptivePool{},
			OracleBandwidth:      true,
			JoinSpread:           5 * time.Second,
			ResumeBuffer:         6 * time.Second,
		}
		if _, err := simpeer.RunSwarm(cfg, segs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperFiguresSerial regenerates the paper set — Figures 2–6
// and the splicing table — at default scale on one worker: the run `make
// profile-figures` profiles, serial so that its CPU profile reads as one
// regeneration's cost by function. The clip and its splicings are made
// before the timer starts.
func BenchmarkPaperFiguresSerial(b *testing.B) {
	p := experiment.DefaultParams()
	p.Workers = 1
	if _, err := p.Video(); err != nil {
		b.Fatal(err)
	}
	for _, sp := range experiment.SplicingSet() {
		if _, err := p.Segments(sp); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range experiment.Figures {
			if !f.Paper {
				continue
			}
			if _, err := f.Run(p); err != nil {
				b.Fatalf("%s: %v", f.Name, err)
			}
		}
	}
}

// BenchmarkSwarmEmulation10k runs one 10k-peer locality-clustered swarm
// per iteration on the incremental reallocator — the calibration-scale
// configuration of cmd/bench's netem_clustered workload, which is where
// it is measured with repetitions, a noise floor and a pinned digest.
// Reported metrics are per-iteration throughput.
func BenchmarkSwarmEmulation10k(b *testing.B) {
	var events, reallocs uint64
	for i := 0; i < b.N; i++ {
		res, err := swarmbench.Run(swarmbench.Config{Peers: 10_000, Shards: 1, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Truncated {
			b.Fatal("10k swarm truncated without an event budget")
		}
		events += res.Events
		reallocs += res.Stats.Reallocs
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(b.N)*10_000/secs, "peers/sec")
		b.ReportMetric(float64(events)/secs, "events/sec")
		b.ReportMetric(float64(reallocs)/secs, "reallocs/sec")
	}
}

// BenchmarkFig6AdaptiveSplicing regenerates the extension figure: the
// OptimalDuration algorithm against fixed splicing durations.
func BenchmarkFig6AdaptiveSplicing(b *testing.B) {
	p := benchParams()
	var last *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		res, err := p.Fig6AdaptiveSplicing([]int64{128, 512})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Values["adaptive"][1], "waitSec@512kBps(adaptive)")
}
