package splicer

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"p2psplice/internal/media"
)

func randomVideo(r *rand.Rand) (*media.Video, error) {
	cfg := media.DefaultEncoderConfig()
	cfg.FPS = 12 + r.Intn(30)
	cfg.BytesPerSecond = int64(32*1024 + r.Intn(256*1024))
	cfg.MaxGOP = time.Duration(2+r.Intn(14)) * time.Second
	dur := time.Duration(3+r.Intn(60)) * time.Second
	return media.Synthesize(cfg, dur, r.Int63())
}

// Property: every splicer produces a valid partition of every clip.
func TestQuickSplicersPartition(t *testing.T) {
	f := func(seed int64, targetSecs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		v, err := randomVideo(r)
		if err != nil {
			return false
		}
		target := time.Duration(int(targetSecs)%10+1) * time.Second
		splicers := []Splicer{
			GOPSplicer{},
			DurationSplicer{Target: target},
			AdaptiveSplicer{Bandwidth: int64(1 + r.Intn(1<<20)), BufferDepth: time.Duration(1+r.Intn(10)) * time.Second},
		}
		for _, sp := range splicers {
			segs, err := sp.Splice(v)
			if err != nil {
				t.Logf("%s: %v", sp.Name(), err)
				return false
			}
			if err := ValidateSegments(v, segs); err != nil {
				t.Logf("%s: %v", sp.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: duration splicing never loses bytes — transfer size is at least
// the source size, and the excess equals the sum of per-segment overheads.
func TestQuickDurationOverheadAccounting(t *testing.T) {
	f := func(seed int64, targetSecs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		v, err := randomVideo(r)
		if err != nil {
			return false
		}
		target := time.Duration(int(targetSecs)%10+1) * time.Second
		segs, err := DurationSplicer{Target: target}.Splice(v)
		if err != nil {
			return false
		}
		var total, overhead int64
		for _, s := range segs {
			extra := s.Bytes() - s.SourceBytes
			if extra < 0 && !s.InsertedIFrame {
				t.Logf("segment %d negative overhead without insertion", s.Index)
				return false
			}
			total += s.Bytes()
			overhead += extra
		}
		return total == v.TotalBytes()+overhead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: GOP splicing is always byte-identical to the source stream.
func TestQuickGOPIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, err := randomVideo(r)
		if err != nil {
			return false
		}
		segs, err := GOPSplicer{}.Splice(v)
		if err != nil {
			return false
		}
		st := ComputeStats(segs)
		return st.OverheadBytes == 0 && st.TotalBytes == v.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: duration variants of the same clip share boundaries wherever
// their grids coincide — the invariant the hybrid-CDN duration ladder needs.
// Every 2t-variant boundary must also be a t-variant boundary.
func TestQuickDurationVariantAlignment(t *testing.T) {
	f := func(seed int64, baseSecs uint8) bool {
		r := rand.New(rand.NewSource(seed))
		v, err := randomVideo(r)
		if err != nil {
			return false
		}
		base := time.Duration(int(baseSecs)%4+1) * time.Second
		small, err := DurationSplicer{Target: base}.Splice(v)
		if err != nil {
			return false
		}
		big, err := DurationSplicer{Target: 2 * base}.Splice(v)
		if err != nil {
			return false
		}
		starts := make(map[time.Duration]bool, len(small))
		for _, s := range small {
			starts[s.Start] = true
		}
		for _, s := range big {
			if !starts[s.Start] {
				t.Logf("big-variant boundary %v not on small-variant grid", s.Start)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: OptimalDuration always returns one of its candidate durations
// and never errors on valid input.
func TestQuickOptimalDurationTotal(t *testing.T) {
	valid := map[time.Duration]bool{}
	for _, d := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		valid[time.Duration(d)*time.Second] = true
	}
	f := func(seed int64, bwRaw uint32, lagMs uint16) bool {
		r := rand.New(rand.NewSource(seed))
		v, err := randomVideo(r)
		if err != nil {
			return false
		}
		bw := int64(bwRaw%(4<<20)) + 1
		lag := time.Duration(lagMs%1000) * time.Millisecond
		d, err := OptimalDuration(v, bw, lag, 0.9)
		if err != nil {
			return false
		}
		return valid[d]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
