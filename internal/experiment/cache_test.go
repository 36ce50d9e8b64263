package experiment

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
)

// freshSegments computes segment metadata the pre-cache way: synthesize,
// splice, convert — no shared state anywhere.
func freshSegments(t testing.TB, p Params, sp splicer.Splicer) []simpeer.SegmentMeta {
	t.Helper()
	v, err := media.Synthesize(p.Encoder, p.ClipDuration, p.VideoSeed)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := sp.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]simpeer.SegmentMeta, len(segs))
	for i, s := range segs {
		out[i] = simpeer.SegmentMeta{
			Bytes:    container.WireSize(len(s.Frames), s.Bytes()),
			Duration: s.Duration(),
		}
	}
	return out
}

// TestSegmentsCacheMatchesFreshSynthesis is the cache-correctness property
// test: for random encoder configs, seeds, and splicer targets, the cached
// Segments result is deep-equal to an uncached synthesis of the same
// inputs — called twice, so both the cold (fill) and warm (hit) paths are
// compared.
func TestSegmentsCacheMatchesFreshSynthesis(t *testing.T) {
	check := func(fpsRaw, targetRaw uint8, rateRaw uint16, seed int64) bool {
		p := QuickParams()
		p.ClipDuration = 4 * time.Second
		p.Encoder.FPS = 10 + int(fpsRaw%21)                         // 10..30
		p.Encoder.BytesPerSecond = 16_000 + int64(rateRaw%16)*8_000 // 16k..136k
		p.VideoSeed = seed
		sp := splicer.DurationSplicer{Target: time.Duration(1+targetRaw%4) * time.Second}

		want := freshSegments(t, p, sp)
		for round := 0; round < 2; round++ {
			got, err := p.Segments(sp)
			if err != nil {
				t.Logf("Segments: %v", err)
				return false
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("round %d: cached result diverges from fresh synthesis (fps=%d rate=%d seed=%d target=%v)",
					round, p.Encoder.FPS, p.Encoder.BytesPerSecond, seed, sp.Target)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(1)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentsCacheDoesNotCacheErrors: a failing config must fail every
// time with the same error, and must not poison a later valid lookup that
// shares nothing with it.
func TestSegmentsCacheErrorsAreStable(t *testing.T) {
	p := QuickParams()
	p.Encoder.FPS = 0
	sp := splicer.GOPSplicer{}
	_, err1 := p.Segments(sp)
	_, err2 := p.Segments(sp)
	if err1 == nil || err2 == nil {
		t.Fatalf("invalid encoder: want errors, got %v / %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Errorf("error changed between lookups: %q vs %q", err1, err2)
	}
	if _, err := QuickParams().Segments(sp); err != nil {
		t.Errorf("valid lookup after failed one: %v", err)
	}
}

// TestSegmentsCacheNoAliasing mutates one caller's returned slice and
// checks the cache still serves the pristine values: callers must never
// share backing arrays.
func TestSegmentsCacheNoAliasing(t *testing.T) {
	p := QuickParams()
	sp := splicer.DurationSplicer{Target: 4 * time.Second}
	a, err := p.Segments(sp)
	if err != nil {
		t.Fatal(err)
	}
	pristine := make([]simpeer.SegmentMeta, len(a))
	copy(pristine, a)
	for i := range a {
		a[i].Bytes = -1
		a[i].Duration = -1
	}
	b, err := p.Segments(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, pristine) {
		t.Fatal("mutating one caller's slice corrupted the cache")
	}
}

// TestSegmentsCacheConcurrentStress hammers the same cold key (and a few
// distinct ones) from many goroutines while every caller scribbles over
// its own returned slice. Run under -race, this is the "cache never
// aliases mutable state across concurrent callers" check; the final
// lookups verify values survived the abuse.
func TestSegmentsCacheConcurrentStress(t *testing.T) {
	p := QuickParams()
	p.ClipDuration = 6 * time.Second
	p.VideoSeed = 314159 // a key no other test warms
	targets := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second}

	wants := make([][]simpeer.SegmentMeta, len(targets))
	for i, target := range targets {
		wants[i] = freshSegments(t, p, splicer.DurationSplicer{Target: target})
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				target := targets[(g+round)%len(targets)]
				segs, err := p.Segments(splicer.DurationSplicer{Target: target})
				if err != nil {
					errs[g] = err
					return
				}
				// Scribble: if any two callers alias, -race flags this.
				for i := range segs {
					segs[i].Bytes = int64(g)
					segs[i].Duration = time.Duration(round)
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for i, target := range targets {
		got, err := p.Segments(splicer.DurationSplicer{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wants[i]) {
			t.Fatalf("target %v: cache corrupted by concurrent scribbling", target)
		}
	}
}

// TestVideoCacheReturnsSameClip: the memoized video is the same synthesis
// a direct call produces, and repeated lookups are cheap identity hits.
func TestVideoCacheReturnsSameClip(t *testing.T) {
	p := QuickParams()
	p.VideoSeed = 271828
	direct, err := media.Synthesize(p.Encoder, p.ClipDuration, p.VideoSeed)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := p.Video()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p.Video()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("repeated Video() lookups returned different instances")
	}
	if !reflect.DeepEqual(v1.Frames(), direct.Frames()) {
		t.Error("cached video differs from direct synthesis")
	}
}

// TestMemoFillsOncePerKey: goroutines racing on one cold key run its fill
// exactly once and all see that fill's value; a second key fills apart.
func TestMemoFillsOncePerKey(t *testing.T) {
	var c memo[int, int]
	var fills atomic.Int64
	fill := func(v int) func() (int, error) {
		return func() (int, error) { fills.Add(1); return v, nil }
	}
	const goroutines = 16
	var wg sync.WaitGroup
	got := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _ = c.get(7, fill(100+g))
		}(g)
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills for one key, want 1", n)
	}
	for g, v := range got {
		if v != got[0] {
			t.Fatalf("goroutine %d saw %d, goroutine 0 saw %d", g, v, got[0])
		}
	}
	if v, _ := c.get(8, fill(-1)); v != -1 || fills.Load() != 2 {
		t.Fatalf("second key: value %d after %d fills, want -1 after 2", v, fills.Load())
	}
}
