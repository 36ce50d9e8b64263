// Zero-allocation gate for the //lint:hotpath contract on the download
// scheduler as the emulation drives it: a pool fill that finds no source,
// and one source selection, run entirely on per-segment slices and the
// swarm's reused source-set scratch (internal/core has its own gate). Excluded under -race because race instrumentation inserts
// allocations the production build does not have.

//go:build !race

package simpeer

import (
	"runtime"
	"testing"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/splicer"
)

// steady is a swarm run into mid-stream with a leecher whose pool has
// room but whose every wanted segment is momentarily sourceless — the
// state almost every fill of a run finds. A blocked fill launches nothing
// and the peer's retry is already pending, so repeating it leaves the
// swarm unchanged, and one warm-up serves every b.N round.
type steady struct {
	sw *swarm
	p  *peerState
}

var steadySwarms = map[int]steady{}

// The swarm sizes the gates run at: the paper's twenty nodes, and 1 000
// peers.
const paperScale, largeScale = 19, 999

// steadySwarm returns the steady swarm of the given size, warming it up
// on first use. A lossless swarm with a tiny manifest reaches mid-stream
// in few events, and the large one is measured earlier in virtual time
// (every completion refills every peer, so its warm-up costs seconds of
// wall time per virtual second).
func steadySwarm(tb testing.TB, leechers int) (*swarm, *peerState) {
	tb.Helper()
	if st, ok := steadySwarms[leechers]; ok {
		return st.sw, st.p
	}
	until := 12 * time.Second
	if leechers == largeScale {
		until = 5 * time.Second
	}
	segs := make([]SegmentMeta, 60)
	for i := range segs {
		segs[i] = SegmentMeta{Bytes: 256 << 10, Duration: 2 * time.Second}
	}
	cfg := baseConfig(256 << 10)
	cfg.Leechers = leechers
	cfg.LossRate = 0
	sw, err := newSwarm(cfg, segs)
	if err != nil {
		tb.Fatal(err)
	}
	sw.manifestBytes = 64
	sw.eng.RunUntil(until)
	for _, p := range sw.peers[1:] {
		if !p.retryPending {
			continue
		}
		picks, launches := 0, 0
		sw.pickCheck = func(_ *peerState, _ int, src *core.Source, _ bool) {
			picks++
			if src != nil {
				launches++
			}
		}
		sw.fill(p)
		sw.pickCheck = nil
		if picks > 0 && launches == 0 {
			steadySwarms[leechers] = steady{sw, p}
			return sw, p
		}
	}
	tb.Fatalf("no blocked leecher among %d at t=%v", leechers, sw.eng.Now())
	return nil, nil
}

// TestZeroAllocFillBlocked pins the blocked fill — cursor scan, Eq. 1,
// source-set build, selection up to the frontier — at zero allocations.
func TestZeroAllocFillBlocked(t *testing.T) {
	sw, p := steadySwarm(t, paperScale)
	if allocs := testing.AllocsPerRun(100, func() { sw.fill(p) }); allocs != 0 {
		t.Errorf("blocked fill allocated %.1f times per call, want 0", allocs)
	}
}

func benchFillBlocked(b *testing.B, leechers int) {
	sw, p := steadySwarm(b, leechers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.fill(p)
	}
}

var sinkSrc *core.Source

func benchPickSource(b *testing.B, leechers int) {
	sw, p := steadySwarm(b, leechers)
	next := sw.nextWanted(p)
	sw.buildSourceSet(p, sw.eng.Now())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSrc = sw.set.Pick(next)
	}
}

// The -benchmem gates for the scheduler: `make bench-alloc` fails if any
// reports nonzero allocs/op.
func BenchmarkHotpathFillBlocked(b *testing.B)   { benchFillBlocked(b, paperScale) }
func BenchmarkHotpathFillBlocked1k(b *testing.B) { benchFillBlocked(b, largeScale) }
func BenchmarkHotpathPickSource(b *testing.B)    { benchPickSource(b, paperScale) }
func BenchmarkHotpathPickSource1k(b *testing.B)  { benchPickSource(b, largeScale) }

// TestRunAllocsPerDownload bounds what the engine run of a paper-scale
// swarm allocates per completed download. A launch, a completion and a
// source retry re-arm Timers and reuse Flows and in-flight records, so
// what a run still allocates is structure: a Flow and its timers for each
// new high of flows in flight, and scratch growing to its high-water
// marks. That settles in the first quarter of the clip, which is the
// warm-up, and the clip is ten times the paper's so that the rest spans
// thousands of downloads.
func TestRunAllocsPerDownload(t *testing.T) {
	const clip = 20 * time.Minute
	segs := segmentsFor(t, splicer.DurationSplicer{Target: 2 * time.Second}, clip, 42)
	cfg := baseConfig(256 << 10)
	cfg.Leechers = paperScale
	sw, err := newSwarm(cfg, segs)
	if err != nil {
		t.Fatal(err)
	}
	held := func() int {
		n := 0
		for _, p := range sw.peers[1:] {
			for _, h := range p.src.Have {
				if h {
					n++
				}
			}
		}
		return n
	}
	sw.eng.RunUntil(clip / 4)
	start := held()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sw.eng.Run(maxEvents); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	downloads, mallocs := held()-start, after.Mallocs-before.Mallocs
	if downloads < 5000 || mallocs*100 >= uint64(downloads) {
		t.Errorf("the run allocated %d times over %d completed downloads, want fewer than 1 per 100 over at least 5000", mallocs, downloads)
	}
}
