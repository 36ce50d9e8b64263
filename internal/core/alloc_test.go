// Zero-allocation gate for the //lint:hotpath contract on the scheduler
// itself: a source-set build with Add (the node's way; simpeer's gates run
// a driver's roster), one selection and a whole blocked fill run on the
// drivers' slices and the set's reused scratch. Excluded under
// -race because race instrumentation inserts allocations the production
// build does not have.

//go:build !race

package core

import "testing"

// benchSwarm is a mid-stream swarm of n sources over a 60-segment clip as
// the emulation would describe it: source i holds the first i%19 segments
// and is fetching the next, half of them far enough along to relay it;
// nobody holds or fetches anything from segment 19 on and there is no
// whole-clip source, so a fill starting at 19 selects once and is then
// cut at the frontier — the blocked fill almost every fill of a run is.
func benchSwarm(n int) (sources []*Source, pool Pool) {
	const segs = 60
	for i := 0; i < n; i++ {
		s := &Source{ID: i, Have: make([]bool, segs), Sending: make([]int, segs), Fetching: make([]bool, segs), Uploads: i % 3}
		for j := 0; j < i%19; j++ {
			s.Have[j] = true
		}
		s.Fetching[i%19] = true
		progress := float64(i%2)*0.5 - 0.25
		s.Relay = func(int) float64 { return progress }
		sources = append(sources, s)
	}
	have := make([]bool, segs)
	for j := 0; j < 19; j++ {
		have[j] = true
	}
	return sources, NewPool(have)
}

// blockedFill is one whole fill that launches nothing.
func blockedFill(set *SourceSet, sources []*Source, pool *Pool) (selections int) {
	set.Reset(sources[0], 4)
	for _, s := range sources {
		set.Add(s)
	}
	launched := false
	blocked := set.Fill(pool, pool.FirstWanted(), 4, 19, func(_ int, src *Source, _ bool) {
		selections++
		launched = launched || src != nil
	})
	if launched || !blocked {
		panic("the benchmark fill is not blocked")
	}
	return selections
}

func TestZeroAllocBlockedFill(t *testing.T) {
	sources, pool := benchSwarm(20)
	var set SourceSet
	if got := blockedFill(&set, sources, &pool); got != 2 {
		t.Fatalf("%d selections, want one blocked and one cut", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { blockedFill(&set, sources, &pool) }); allocs != 0 {
		t.Errorf("blocked fill allocated %.1f times per call, want 0", allocs)
	}
}

var sinkSource *Source

func benchPick(b *testing.B, n int) {
	sources, pool := benchSwarm(n)
	var set SourceSet
	blockedFill(&set, sources, &pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSource = set.Pick(10) // 8 in 19 hold it, 1 in 19 is fetching it
	}
}

func benchFill(b *testing.B, n int) {
	sources, pool := benchSwarm(n)
	var set SourceSet
	blockedFill(&set, sources, &pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blockedFill(&set, sources, &pool)
	}
}

// The -benchmem gates: `make bench-alloc` fails if any reports nonzero
// allocs/op.
func BenchmarkHotpathCorePick(b *testing.B)          { benchPick(b, 20) }
func BenchmarkHotpathCorePick1k(b *testing.B)        { benchPick(b, 1000) }
func BenchmarkHotpathCoreBlockedFill(b *testing.B)   { benchFill(b, 20) }
func BenchmarkHotpathCoreBlockedFill1k(b *testing.B) { benchFill(b, 1000) }
