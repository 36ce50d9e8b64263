package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/peer"
	"p2psplice/internal/shaper"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
	"p2psplice/internal/wire"
)

// streamParams sizes a real-socket workload: an in-process tracker, a
// seeder and viewers over 127.0.0.1, default policy (Eq. 1), default
// in-memory store, 2-second duration splicing.
type streamParams struct {
	name    string
	clip    time.Duration
	rate    int64 // coded bytes per second
	viewers int
	shape   *shaper.Config
}

var streamLoopback = streamWorkload(streamParams{
	name: "stream_loopback", clip: 120 * time.Second, rate: 1 << 20, viewers: 2,
}, "A 120 s clip at 1 MiB/s streamed unshaped to 2 viewers over loopback TCP: CPU-bound use of the real stack "+
	"(wire framing, peer scheduling, checksum verify, socket I/O); set-up is the publish pipeline.", 7)

var streamShaped = streamWorkload(streamParams{
	name: "stream_shaped", clip: 20 * time.Second, rate: 128 << 10, viewers: 3,
	shape: &shaper.Config{RateBytesPerSec: 512 << 10, Latency: 25 * time.Millisecond},
}, "The paper's regime on real sockets: a 1 Mbps clip to 3 viewers, every node shaped to 512 KiB/s + 25 ms, so "+
	"the stack is latency- and token-bucket-bound and a goodput trick that costs startup time shows.", 3)

const segmentTarget = 2 * time.Second

func streamWorkload(sp streamParams, why string, minReps int) workload {
	sideBySide := 1
	if sp.shape != nil {
		// A shaped repetition keeps a CPU 3 % busy for 5.6 s; four at a
		// time fit in a pass what would otherwise take four passes.
		sideBySide = 4
	}
	return workload{
		name: sp.name, why: why, warmup: 1, minReps: minReps, sideBySide: sideBySide,
		rep:       func(rc *repCtx) rep { return streamRep(rc, sp.scaled(rc.smoke)) },
		probes:    func(rc *repCtx) map[string]float64 { return streamProbes(rc, sp.scaled(rc.smoke)) },
		passLayer: streamPassLayer,
	}
}

func (sp streamParams) scaled(smoke bool) streamParams {
	if smoke {
		sp.clip = 4 * time.Second
	}
	return sp
}

// publish is the publish pipeline: synthesize the clip from the seed,
// splice it, and build the manifest and the encoded segment blobs.
func publish(rc *repCtx, parent int, r *rep, sp streamParams) (*container.Manifest, [][]byte, error) {
	enc := media.DefaultEncoderConfig()
	enc.BytesPerSecond = sp.rate
	clipSeed := 41 + rc.seed

	id := rc.spans.start(parent, "media.synthesize")
	v, err := media.Synthesize(enc, sp.clip, clipSeed)
	synthS := rc.spans.end(id)
	if err != nil {
		return nil, nil, err
	}
	cut := splicer.DurationSplicer{Target: segmentTarget}
	id = rc.spans.start(parent, "splicer.splice")
	segs, err := cut.Splice(v)
	spliceS := rc.spans.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = rc.spans.start(parent, "container.build_manifest")
	m, blobs, err := container.BuildManifest(container.ClipInfo{
		Duration: v.Duration(), BytesPerSecond: sp.rate, Seed: clipSeed,
	}, cut.Name(), segs)
	buildS := rc.spans.end(id)
	if err != nil {
		return nil, nil, err
	}
	if rc.traced && r != nil {
		r.setLayer("media.synthesize_s", synthS)
		r.setLayer("splicer.splice_s", spliceS)
		r.setLayer("container.build_s", buildS)
		r.setLayer("container.build_mb_per_s", float64(m.TotalBytes())/1e6/buildS)
	}
	return m, blobs, nil
}

// localTracker is an in-process tracker on a loopback port.
type localTracker struct {
	srv    *http.Server
	done   sync.WaitGroup
	client *tracker.Client
}

func startTracker(reg *trace.Registry) (*localTracker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tracker listen: %w", err)
	}
	t := &localTracker{
		srv:    &http.Server{Handler: tracker.NewServer(tracker.WithMetrics(reg)).Handler()},
		client: tracker.NewClient("http://"+ln.Addr().String(), nil),
	}
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		_ = t.srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return t, nil
}

// stop closes the tracker and waits for its goroutine.
func (t *localTracker) stop() {
	_ = t.srv.Close()
	t.done.Wait()
}

// setupMu lets one repetition set up at a time when several run side by
// side, so a set-up time never includes waiting for another's CPU.
var setupMu sync.Mutex

// streamRep publishes a clip, streams it to every viewer, and verifies
// every viewer's every segment. The timed region runs from Seed to the
// last WaitComplete.
func streamRep(rc *repCtx, sp streamParams) rep {
	var r rep
	setupMu.Lock()
	t0 := time.Now()
	setup := rc.span("setup")
	m, blobs, err := publish(rc, setup, &r, sp)
	if err != nil {
		setupMu.Unlock()
		rc.spans.end(setup)
		r.Attempted, r.Failed = 1, 1
		r.problemf("%s: publish: %v", sp.name, err)
		return r
	}
	r.Attempted = sp.viewers * len(m.Segments)
	id := rc.spans.start(setup, "tracker.start")
	trk, err := startTracker(rc.reg)
	rc.spans.end(id)
	rc.spans.end(setup)
	r.SetupS = time.Since(t0).Seconds()
	setupMu.Unlock()
	if err != nil {
		r.Failed = r.Attempted
		r.problemf("%s: %v", sp.name, err)
		return r
	}
	defer trk.stop()

	r.setExact("segments", uint64(len(m.Segments)))
	r.setExact("payload_bytes", uint64(m.TotalBytes()))
	r.setExact("manifest.digest", manifestDigest(m))

	cfg := peer.Config{
		AnnounceInterval: 200 * time.Millisecond, // as experiment.RealStackRun and the quickstart
		Shape:            sp.shape,
		Metrics:          rc.reg,
		Trace:            rc.tracer,
	}
	// A repetition that does not finish in this long has hung; its
	// missing segments count as failed.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	before := rc.reg.Snap()
	var seeder *peer.Node
	var viewers []*peer.Node
	defer func() {
		for _, n := range viewers {
			_ = n.Close() // shutting down; the verdict is already in
		}
		if seeder != nil {
			_ = seeder.Close()
		}
	}()
	run := rc.span("run")
	rc.timed(&r, func() {
		id := rc.spans.start(run, "peer.seed")
		seeder, err = peer.Seed(trk.client, m, blobs, cfg)
		rc.spans.end(id)
		if err != nil {
			return
		}
		for i := 0; i < sp.viewers; i++ {
			id := rc.spans.start(run, fmt.Sprintf("peer.join[%d]", i))
			var n *peer.Node
			n, err = peer.Join(trk.client, seeder.InfoHash(), cfg)
			rc.spans.end(id)
			if err != nil {
				return
			}
			viewers = append(viewers, n)
		}
		var wg sync.WaitGroup
		for i, n := range viewers {
			wg.Add(1)
			go func(i int, n *peer.Node) {
				defer wg.Done()
				id := rc.spans.start(run, fmt.Sprintf("peer.wait_complete[%d]", i))
				_ = n.WaitComplete(ctx) // a timeout shows as missing segments below
				rc.spans.end(id)
			}(i, n)
		}
		wg.Wait()
	})
	rc.spans.end(run)
	if err != nil {
		r.Failed = r.Attempted
		r.problemf("%s: %v", sp.name, err)
		return r
	}

	verify := rc.span("verify")
	for vi, n := range viewers {
		for si, seg := range m.Segments {
			blob, err := n.Store().Block(si, 0, int(seg.Bytes))
			if err == nil {
				err = m.VerifySegment(si, blob)
			}
			if err != nil {
				r.Failed++
				r.problemf("%s: viewer %d: %v", sp.name, vi, err)
			}
		}
	}
	rc.spans.end(verify)

	if rc.traced {
		streamLayer(&r, sp, m, seeder, viewers, before, rc.reg.Snap())
	}
	return r
}

// manifestDigest pins the publish pipeline's output: FNV-1a over every
// segment's size and checksum.
func manifestDigest(m *container.Manifest) uint64 {
	h := fnv.New64a()
	for _, s := range m.Segments {
		fmt.Fprintf(h, "%d:%s;", s.Bytes, s.SHA256)
	}
	return h.Sum64()
}

// streamLayer derives one repetition's per-layer metrics from the
// nodes' public snapshots and the registry's growth over the repetition.
func streamLayer(r *rep, sp streamParams, m *container.Manifest, seeder *peer.Node, viewers []*peer.Node,
	before, after trace.RegistrySnapshot) {
	delta := func(name string) float64 { return float64(counterValue(after, name) - counterValue(before, name)) }
	payload := float64(m.TotalBytes())
	delivered := payload * float64(len(viewers))
	segments := float64(len(viewers) * len(m.Segments))

	var downloaded, verifyFails, expired, stalls, stallS, utilisation float64
	var startups []float64
	for _, n := range viewers {
		st, pm := n.Stats(), n.Playback()
		downloaded += float64(st.DownloadedBytes)
		verifyFails += float64(st.VerifyFailures)
		expired += float64(st.ExpiredDownloads)
		stalls += float64(pm.Stalls)
		stallS += pm.TotalStall.Seconds()
		startups = append(startups, float64(pm.StartupTime)/1e6)
		if sp.shape != nil {
			if streaming := r.WallS - pm.StartupTime.Seconds(); streaming > 0 {
				utilisation += payload / (float64(sp.shape.RateBytesPerSec) * streaming) / float64(len(viewers))
			}
		}
	}
	r.setLayer("peer.goodput_mbps", delivered*8/1e6/r.WallS)
	r.setLayer("peer.cpu_s_per_gb", r.CPUS/(delivered/1e9))
	r.setLayer("peer.sched_calls", delta("sched_calls"))
	r.setLayer("peer.sched_launches", delta("sched_launches"))
	r.setLayer("peer.launches_per_segment", delta("sched_launches")/segments)
	r.setLayer("peer.blocks_rx", delta("blocks_rx"))
	r.setLayer("peer.bytes_rx", delta("bytes_rx"))
	r.setLayer("peer.duplicate_bytes_share", (downloaded-delivered)/delivered)
	if downloaded > 0 {
		r.setLayer("peer.seeder_upload_share", float64(seeder.Stats().UploadedBytes)/downloaded)
	}
	r.setLayer("peer.verify_failures", verifyFails)
	r.setLayer("peer.downloads_expired", expired)
	r.setLayer("peer.dial_failures", delta("dial_failures"))
	r.setLayer("tracker.announces", delta("tracker_announces_total"))
	r.setLayer("tracker.announce_errors", delta("tracker_announce_errors_total"))
	r.setLayer("player.startup_ms_p50", median(startups))
	r.setLayer("player.startup_ms_max", slices.Max(startups))
	r.setLayer("player.stalls", stalls)
	r.setLayer("player.stall_s", stallS)
	if sp.shape != nil {
		r.setLayer("shaper.link_utilisation", utilisation)
	}
}

// streamPassLayer reads the distributions that need every traced
// repetition's samples off the pass-wide registry.
func streamPassLayer(snap trace.RegistrySnapshot, out map[string]float64) {
	seg := mergeHists(snap, "p2p_segment_download_seconds")
	out["peer.segment_ms_p50"] = histQuantileMS(seg, 0.50)
	out["peer.segment_ms_p99"] = histQuantileMS(seg, 0.99)
	out["peer.pool_k_p50"] = histMedianUpper(mergeHists(snap, "p2p_pool_size_k"))
	out["tracker.announce_rtt_ms_p50"] = histQuantileMS(mergeHists(snap, "p2p_announce_rtt_seconds"), 0.50)
}

// streamProbes isolates the container and wire layers on the clip the
// workload streams: what each viewer does once per segment, and the
// message sequence one viewer's download generates.
func streamProbes(rc *repCtx, sp streamParams) map[string]float64 {
	out := map[string]float64{}
	id := rc.spans.start(0, "probe.publish")
	m, blobs, err := publish(rc, id, nil, sp)
	rc.spans.end(id)
	if err != nil {
		return out // the repetitions already reported the same failure
	}
	mb := float64(m.TotalBytes()) / 1e6

	id = rc.spans.start(0, "probe.container_verify")
	out["container.verify_mb_per_s"] = perSecond(func() float64 {
		for i, b := range blobs {
			if m.VerifySegment(i, b) != nil {
				return 0
			}
		}
		return mb
	})
	rc.spans.end(id)

	id = rc.spans.start(0, "probe.container_decode")
	out["container.decode_mb_per_s"] = perSecond(func() float64 {
		for _, b := range blobs {
			if _, err := container.DecodeBytes(b); err != nil {
				return 0
			}
		}
		return mb
	})
	rc.spans.end(id)

	id = rc.spans.start(0, "probe.wire")
	wireProbe(blobs, out)
	rc.spans.end(id)
	return out
}

// perSecond calls fn, which does the returned units of work, for at
// least 200 ms and returns units per second.
func perSecond(fn func() float64) float64 {
	var units float64
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		units += fn()
	}
	return units / time.Since(t0).Seconds()
}

// wireProbe pushes the REQUEST/PIECE/HAVE sequence of one viewer's
// download, at the default 16 KiB block, through wire.Writer into a
// buffer and back out through wire.Reader.ReadInto.
func wireProbe(blobs [][]byte, out map[string]float64) {
	var buf bytes.Buffer
	wr, rd := wire.NewWriter(&buf), wire.NewReader(&buf)
	var msg, in wire.Message
	var msgs, frameBytes float64
	ok := true
	send := func() {
		if wr.WriteMsg(&msg) != nil {
			ok = false
			return
		}
		frameBytes += float64(buf.Len())
		msgs++
		if rd.ReadInto(&in) != nil {
			ok = false
		}
	}
	clip := func() float64 {
		for i, blob := range blobs {
			for off := 0; off < len(blob); off += wire.DefaultBlockLen {
				n := min(wire.DefaultBlockLen, len(blob)-off)
				msg = wire.Message{Type: wire.MsgRequest, Index: uint32(i), Offset: uint32(off), Length: uint32(n)}
				send()
				msg = wire.Message{Type: wire.MsgPiece, Index: uint32(i), Offset: uint32(off), Data: blob[off : off+n]}
				send()
			}
			msg = wire.Message{Type: wire.MsgHave, Index: uint32(i)}
			send()
		}
		return 1
	}
	clip() // grow the codec's buffers before counting allocations
	msgs, frameBytes = 0, 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	perSecond(clip)
	elapsed := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if !ok || msgs == 0 {
		return
	}
	out["wire.probe_msgs_per_s"] = msgs / elapsed
	out["wire.probe_mb_per_s"] = frameBytes / 1e6 / elapsed
	out["wire.probe_allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / msgs
}
