package experiment

import (
	"strings"
	"testing"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
)

// testParams keeps the sweeps small enough for CI while preserving shapes.
func testParams() Params {
	p := QuickParams()
	p.ClipDuration = 30 * time.Second
	p.Leechers = 5
	return p
}

// runPoint executes Runs repetitions at one sweep point (on the worker
// pool when Runs > 1 and Workers allows) and averages. label attributes
// failures to the figure and series that scheduled the point.
func (p Params) runPoint(label string, segs []simpeer.SegmentMeta, bandwidthKB int64,
	policy core.Policy, mod func(*simpeer.SwarmConfig)) (Point, error) {
	points, err := p.points([]row{{at: func(int) (cell, error) {
		return cell{label: label, segs: segs, bandwidthKB: bandwidthKB, policy: policy, mod: mod}, nil
	}}}, 1)
	if err != nil {
		return Point{}, err
	}
	return points[0][0], nil
}

func TestSegments(t *testing.T) {
	p := testParams()
	for _, sp := range SplicingSet() {
		segs, err := p.Segments(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name(), err)
		}
		if len(segs) == 0 {
			t.Fatalf("%s: no segments", sp.Name())
		}
		v, err := p.Video()
		if err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for i, s := range segs {
			if s.Bytes <= 0 || s.Duration <= 0 {
				t.Errorf("%s segment %d: %+v", sp.Name(), i, s)
			}
			total += s.Duration
		}
		// The clip rounds down to a whole number of frames.
		if total != v.Duration() {
			t.Errorf("%s: segments cover %v, want %v", sp.Name(), total, v.Duration())
		}
	}
}

func TestSegmentsIncludeContainerFraming(t *testing.T) {
	p := testParams()
	v, err := p.Video()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := p.Segments(splicer.GOPSplicer{})
	if err != nil {
		t.Fatal(err)
	}
	var wire int64
	for _, s := range segs {
		wire += s.Bytes
	}
	if wire <= v.TotalBytes() {
		t.Errorf("wire bytes %d should exceed source %d (container framing)", wire, v.TotalBytes())
	}
}

func TestFig2StallsDecreaseWithBandwidth(t *testing.T) {
	p := testParams()
	res, err := p.Fig2Stalls([]int64{128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Figure.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gop", "2s", "4s", "8s"} {
		vals := res.Values[name]
		if len(vals) != 2 {
			t.Fatalf("series %q has %d values", name, len(vals))
		}
		if vals[1] > vals[0] {
			t.Errorf("%s: stalls increased with bandwidth: %v", name, vals)
		}
	}
}

func TestFig3SeriesComplete(t *testing.T) {
	// Ordering claims about Figure 3 only emerge at the paper's full scale
	// (19 leechers, 2-minute clip; see EXPERIMENTS.md); at test scale we
	// check the harness produces a complete, valid figure.
	p := testParams()
	res, err := p.Fig3StallDuration([]int64{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Figure.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gop", "2s", "4s", "8s"} {
		if len(res.Values[name]) != 2 {
			t.Errorf("series %q incomplete", name)
		}
	}
}

func TestFig4StartupShape(t *testing.T) {
	p := testParams()
	res, err := p.Fig4Startup([]int64{128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	s2, s4, s8 := res.Values["2s"], res.Values["4s"], res.Values["8s"]
	// Startup grows with segment duration at every bandwidth.
	for i := range s2 {
		if !(s2[i] < s4[i] && s4[i] < s8[i]) {
			t.Errorf("startup not monotone in segment duration at x=%d: 2s=%v 4s=%v 8s=%v",
				i, s2[i], s4[i], s8[i])
		}
	}
	// Startup shrinks with bandwidth for every series.
	for _, s := range [][]float64{s2, s4, s8} {
		if s[1] > s[0] {
			t.Errorf("startup increased with bandwidth: %v", s)
		}
	}
}

func TestFig5PoolingShape(t *testing.T) {
	p := testParams()
	res, err := p.Fig5Pooling([]int64{768})
	if err != nil {
		t.Fatal(err)
	}
	// At high bandwidth every policy plays nearly stall-free.
	for name, vals := range res.Values {
		if vals[0] > 2 {
			t.Errorf("%s: %v stalls at 768 kB/s, want near zero", name, vals[0])
		}
	}
}

func TestFig5AdaptiveStartupAdvantage(t *testing.T) {
	// The structural advantage of Equation 1 in every configuration we
	// measured: at T=0 it downloads exactly one segment, so playback starts
	// sooner than any large fixed pool.
	p := testParams()
	segs, err := p.Segments(splicer.DurationSplicer{Target: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := p.runPoint("test/adaptive", segs, 128, core.AdaptivePool{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool8, err := p.runPoint("test/pool-8", segs, 128, core.FixedPool{K: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.StartupSecs >= pool8.StartupSecs {
		t.Errorf("adaptive startup %v not better than pool-8 %v at 128 kB/s",
			adaptive.StartupSecs, pool8.StartupSecs)
	}
}

func TestSpliceOverheadTable(t *testing.T) {
	p := testParams()
	res, err := p.SpliceOverheadTable()
	if err != nil {
		t.Fatal(err)
	}
	gop := res.Values["gop"][0]
	s2 := res.Values["2s"][0]
	s4 := res.Values["4s"][0]
	s8 := res.Values["8s"][0]
	if gop != 0 {
		t.Errorf("GOP overhead = %v%%, want 0", gop)
	}
	if !(s2 > s4 && s4 > s8 && s8 > 0) {
		t.Errorf("overhead not monotone: 2s=%v 4s=%v 8s=%v", s2, s4, s8)
	}
	if !strings.Contains(res.Figure.Render(), "overhead") {
		t.Error("rendered table missing overhead row")
	}
}

func TestFiguresDeterministic(t *testing.T) {
	p := testParams()
	a, err := p.Fig5Pooling([]int64{256})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Fig5Pooling([]int64{256})
	if err != nil {
		t.Fatal(err)
	}
	for name, av := range a.Values {
		bv := b.Values[name]
		for i := range av {
			if av[i] != bv[i] {
				t.Errorf("%s[%d]: %v vs %v", name, i, av[i], bv[i])
			}
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	p := testParams()
	p.Encoder.FPS = 0
	if _, err := p.Fig2Stalls(nil); err == nil {
		t.Error("invalid encoder: want error")
	}
	if _, err := p.Fig4Startup(nil); err == nil {
		t.Error("invalid encoder: want error")
	}
	if _, err := p.Fig5Pooling(nil); err == nil {
		t.Error("invalid encoder: want error")
	}
	if _, err := p.SpliceOverheadTable(); err == nil {
		t.Error("invalid encoder: want error")
	}
	bad := testParams()
	bad.Leechers = 0
	if _, err := bad.Fig2Stalls([]int64{128}); err == nil {
		t.Error("invalid swarm: want error")
	}
}

func TestDefaultAxes(t *testing.T) {
	p := testParams()
	res, err := p.Fig2Stalls(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figure.XValues) != len(Fig2Bandwidths) {
		t.Errorf("default Fig2 axis has %d points, want %d", len(res.Figure.XValues), len(Fig2Bandwidths))
	}
}

func TestFig6AdaptiveTracksBestFixed(t *testing.T) {
	p := testParams()
	res, err := p.Fig6AdaptiveSplicing([]int64{256, 768})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Figure.Validate(); err != nil {
		t.Fatal(err)
	}
	adaptive := res.Values["adaptive"]
	for i := range adaptive {
		best := res.Values["2s"][i]
		for _, name := range []string{"4s", "8s"} {
			if v := res.Values[name][i]; v < best {
				best = v
			}
		}
		// Adaptive should stay within 2.5x of the best fixed duration at
		// every bandwidth (it cannot beat an oracle that already knows B,
		// but it must not collapse).
		if adaptive[i] > best*2.5+2 {
			t.Errorf("x=%d: adaptive %.1f vs best fixed %.1f", i, adaptive[i], best)
		}
	}
}
