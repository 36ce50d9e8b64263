// Zero-allocation gate for the //lint:hotpath contract on the scheduler
// itself: a set gathered From a roster, one selection and a whole blocked
// fill, Eq. 1's decision included, run on the drivers' slices and the
// set's reused scratch. Excluded under
// -race because race instrumentation inserts allocations the production
// build does not have.

//go:build !race

package core

import (
	"testing"
	"time"
)

// benchSwarm is a mid-stream swarm of n sources over a 60-segment clip as
// the emulation would describe it: source i holds the first i%19 segments
// and is fetching the next, half of them far enough along to relay it;
// nobody holds or fetches anything from segment 19 on and there is no
// whole-clip source, so a fill starting at 19 selects once and is then
// cut at the frontier — the blocked fill almost every fill of a run is.
// The downloader holds the first 19 segments and pools 4.
func benchSwarm(n int) (sources []*Source, dl *Downloads) {
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
	have, sizes, durations := make([]bool, segs), make([]int64, segs), make([]time.Duration, segs)
	for j := range have {
		have[j], sizes[j], durations[j] = j < 19, 256<<10, 2*time.Second
	}
	return sources, NewDownloads(have, nil, FixedPool{K: 4}, sizes, durations)
}

// blockedFill is one whole pool decision over r that launches nothing, by
// a requester whose previous source was prev.
func blockedFill(set *SourceSet, r *Roster, prev *Source, dl *Downloads) (selections int) {
	f := dl.Fill(128<<10, 3*time.Second, dl.Pool.FirstWanted(), 19, func() *SourceSet {
		set.From(r, -1, prev)
		return set
	}, func(int, *Source, bool) { selections++ })
	if f.Launched != 0 || !f.Blocked {
		panic("the benchmark fill is not blocked")
	}
	return selections
}

func TestZeroAllocBlockedFill(t *testing.T) {
	sources, dl := benchSwarm(20)
	var set SourceSet
	r := gather(&set, sources, sources[0], 4)
	if got := blockedFill(&set, r, sources[0], dl); got != 2 {
		t.Fatalf("%d selections, want one blocked and one cut", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { blockedFill(&set, r, sources[0], dl) }); allocs != 0 {
		t.Errorf("blocked fill allocated %.1f times per call, want 0", allocs)
	}
}

var sinkSource *Source

func benchPick(b *testing.B, n int) {
	sources, dl := benchSwarm(n)
	var set SourceSet
	blockedFill(&set, gather(&set, sources, sources[0], 4), sources[0], dl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSource = set.Pick(10) // 8 in 19 hold it, 1 in 19 is fetching it
	}
}

func benchFill(b *testing.B, n int) {
	sources, dl := benchSwarm(n)
	var set SourceSet
	r := gather(&set, sources, sources[0], 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blockedFill(&set, r, sources[0], dl)
	}
}

// The -benchmem gates: `make bench-alloc` fails if any reports nonzero
// allocs/op.
func BenchmarkHotpathCorePick(b *testing.B)          { benchPick(b, 20) }
func BenchmarkHotpathCorePick1k(b *testing.B)        { benchPick(b, 1000) }
func BenchmarkHotpathCoreBlockedFill(b *testing.B)   { benchFill(b, 20) }
func BenchmarkHotpathCoreBlockedFill1k(b *testing.B) { benchFill(b, 1000) }
