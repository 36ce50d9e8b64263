package splicer

import (
	"testing"
	"time"

	"p2psplice/internal/media"
)

func testVideo(t *testing.T, dur time.Duration, seed int64) *media.Video {
	t.Helper()
	v, err := media.Synthesize(media.DefaultEncoderConfig(), dur, seed)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return v
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindGOP, "gop"},
		{KindDuration, "duration"},
		{KindAdaptive, "adaptive"},
		{Kind(9), "Kind(9)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestGOPSplicerPartition(t *testing.T) {
	v := testVideo(t, 2*time.Minute, 1)
	segs, err := GOPSplicer{}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSegments(v, segs); err != nil {
		t.Fatal(err)
	}
	if len(segs) != len(v.GOPs) {
		t.Errorf("got %d segments, want %d (one per GOP)", len(segs), len(v.GOPs))
	}
}

func TestGOPSplicerZeroOverhead(t *testing.T) {
	v := testVideo(t, time.Minute, 2)
	segs, err := GOPSplicer{}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(segs)
	if st.OverheadBytes != 0 {
		t.Errorf("GOP splicing overhead = %d bytes, want 0", st.OverheadBytes)
	}
	if st.InsertedIFrames != 0 {
		t.Errorf("GOP splicing inserted %d I frames, want 0", st.InsertedIFrames)
	}
	if st.TotalBytes != v.TotalBytes() {
		t.Errorf("GOP splicing total %d, want %d", st.TotalBytes, v.TotalBytes())
	}
}

func TestGOPSplicerEmpty(t *testing.T) {
	if _, err := (GOPSplicer{}).Splice(&media.Video{}); err == nil {
		t.Error("want error for empty video")
	}
	if _, err := (GOPSplicer{}).Splice(nil); err == nil {
		t.Error("want error for nil video")
	}
}

func TestDurationSplicerPartition(t *testing.T) {
	v := testVideo(t, 2*time.Minute, 1)
	for _, target := range []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second} {
		segs, err := DurationSplicer{Target: target}.Splice(v)
		if err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		if err := ValidateSegments(v, segs); err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		frameDur := time.Second / time.Duration(v.Config.FPS)
		for i, s := range segs {
			if d := s.Duration(); d > target+frameDur {
				t.Errorf("%v: segment %d duration %v exceeds target+frame", target, i, d)
			}
			// All but the last segment land within a frame of the target
			// (absolute-grid cuts can undershoot by up to one frame).
			if i < len(segs)-1 {
				if d := s.Duration(); d < target-frameDur {
					t.Errorf("%v: segment %d duration %v below target-frame", target, i, d)
				}
			}
		}
		// Variant alignment: every cut lands on the absolute k*target grid
		// (the first frame at or after each multiple of the target).
		for i, s := range segs[1:] {
			k := time.Duration(i + 1)
			if s.Start < k*target || s.Start >= k*target+frameDur+target {
				t.Errorf("%v: segment %d starts at %v, not on the absolute grid", target, i+1, s.Start)
			}
		}
	}
}

func TestDurationSplicerOverhead(t *testing.T) {
	v := testVideo(t, 2*time.Minute, 3)
	st2 := mustStats(t, DurationSplicer{Target: 2 * time.Second}, v)
	st4 := mustStats(t, DurationSplicer{Target: 4 * time.Second}, v)
	st8 := mustStats(t, DurationSplicer{Target: 8 * time.Second}, v)
	if st2.OverheadBytes <= 0 {
		t.Error("2s splicing should have positive overhead")
	}
	// Shorter segments insert more I frames: overhead must be monotone.
	if !(st2.OverheadBytes >= st4.OverheadBytes && st4.OverheadBytes >= st8.OverheadBytes) {
		t.Errorf("overhead not monotone: 2s=%d 4s=%d 8s=%d",
			st2.OverheadBytes, st4.OverheadBytes, st8.OverheadBytes)
	}
	// Source bytes are invariant across techniques.
	if st2.SourceBytes != v.TotalBytes() || st8.SourceBytes != v.TotalBytes() {
		t.Error("SourceBytes should equal the stream size")
	}
}

func mustStats(t *testing.T, sp Splicer, v *media.Video) Stats {
	t.Helper()
	segs, err := sp.Splice(v)
	if err != nil {
		t.Fatalf("%s: %v", sp.Name(), err)
	}
	return ComputeStats(segs)
}

func TestDurationSplicerSizeSpreadNarrowerThanGOP(t *testing.T) {
	// The paper's core claim about segment-size distributions: duration
	// splicing yields segments "neither too small nor too big" while GOP
	// splicing is heavy-tailed.
	v := testVideo(t, 2*time.Minute, 4)
	gop := mustStats(t, GOPSplicer{}, v)
	dur := mustStats(t, DurationSplicer{Target: 4 * time.Second}, v)
	gopSpread := float64(gop.MaxBytes) / float64(gop.MinBytes)
	durSpread := float64(dur.MaxBytes) / float64(dur.MinBytes)
	if durSpread >= gopSpread {
		t.Errorf("duration spread %.1f not narrower than GOP spread %.1f", durSpread, gopSpread)
	}
}

func TestDurationSplicerErrors(t *testing.T) {
	v := testVideo(t, 10*time.Second, 1)
	if _, err := (DurationSplicer{Target: 0}).Splice(v); err == nil {
		t.Error("zero target: want error")
	}
	if _, err := (DurationSplicer{Target: time.Second}).Splice(nil); err == nil {
		t.Error("nil video: want error")
	}
}

func TestDurationSplicerName(t *testing.T) {
	if got := (DurationSplicer{Target: 4 * time.Second}).Name(); got != "4s" {
		t.Errorf("Name() = %q, want 4s", got)
	}
	if got := (DurationSplicer{Target: 1500 * time.Millisecond}).Name(); got != "1.5s" {
		t.Errorf("Name() = %q, want 1.5s", got)
	}
}

func TestAdaptiveSplicerTarget(t *testing.T) {
	v := testVideo(t, time.Minute, 5)
	rate := float64(v.TotalBytes()) / v.Duration().Seconds()
	a := AdaptiveSplicer{Bandwidth: int64(rate * 2), BufferDepth: 4 * time.Second}
	target, err := a.TargetFor(v)
	if err != nil {
		t.Fatal(err)
	}
	// W <= B*T with B = 2*rate, T = 4s gives a target of ~8s of video.
	if target < 7*time.Second || target > 9*time.Second {
		t.Errorf("target = %v, want ~8s", target)
	}
	segs, err := a.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSegments(v, segs); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveSplicerClamps(t *testing.T) {
	v := testVideo(t, time.Minute, 5)
	low := AdaptiveSplicer{Bandwidth: 1, BufferDepth: time.Second}
	target, err := low.TargetFor(v)
	if err != nil {
		t.Fatal(err)
	}
	if target != time.Second {
		t.Errorf("low-bandwidth target = %v, want clamped to 1s", target)
	}
	high := AdaptiveSplicer{Bandwidth: 1 << 40, BufferDepth: time.Minute}
	target, err = high.TargetFor(v)
	if err != nil {
		t.Fatal(err)
	}
	if target != 16*time.Second {
		t.Errorf("high-bandwidth target = %v, want clamped to 16s", target)
	}
}

func TestAdaptiveSplicerErrors(t *testing.T) {
	v := testVideo(t, 10*time.Second, 1)
	cases := []AdaptiveSplicer{
		{Bandwidth: 0, BufferDepth: time.Second},
		{Bandwidth: 1000, BufferDepth: 0},
	}
	for i, a := range cases {
		if _, err := a.Splice(v); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := (AdaptiveSplicer{Bandwidth: 1000, BufferDepth: time.Second}).Splice(nil); err == nil {
		t.Error("nil video: want error")
	}
}

func TestStatsEmptyAndString(t *testing.T) {
	var st Stats
	if st.OverheadRatio() != 0 {
		t.Error("empty stats should report zeros")
	}
	v := testVideo(t, 10*time.Second, 1)
	segs, err := DurationSplicer{Target: 2 * time.Second}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	st = ComputeStats(segs)
	if st.String() == "" {
		t.Error("String() should not be empty")
	}
	if st.Count == 0 || st.TotalBytes <= 0 {
		t.Errorf("stats of %d segments count %d segments of %d bytes", len(segs), st.Count, st.TotalBytes)
	}
}

func TestValidateSegmentsRejectsBadInput(t *testing.T) {
	v := testVideo(t, 10*time.Second, 1)
	segs, err := GOPSplicer{}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSegments(v, nil); err == nil {
		t.Error("nil segments: want error")
	}
	// Drop a segment: coverage breaks.
	if err := ValidateSegments(v, segs[:len(segs)-1]); err == nil {
		t.Error("truncated segments: want error")
	}
	// Reorder: index breaks.
	if len(segs) >= 2 {
		bad := make([]Segment, len(segs))
		copy(bad, segs)
		bad[0], bad[1] = bad[1], bad[0]
		if err := ValidateSegments(v, bad); err == nil {
			t.Error("reordered segments: want error")
		}
	}
}

func TestSegmentValidate(t *testing.T) {
	s := Segment{Index: 0}
	if err := s.Validate(); err == nil {
		t.Error("empty segment: want error")
	}
	s.Frames = []media.Frame{{Type: media.FrameP}}
	if err := s.Validate(); err == nil {
		t.Error("P-start segment: want error")
	}
	s.Frames = []media.Frame{{Type: media.FrameI, PTS: time.Second}}
	s.Start = 0
	if err := s.Validate(); err == nil {
		t.Error("mismatched start: want error")
	}
}

func TestOptimalDuration(t *testing.T) {
	v := testVideo(t, time.Minute, 7)
	rate := float64(v.TotalBytes()) / v.Duration().Seconds()

	// Plenty of bandwidth: the smallest candidate is feasible.
	d, err := OptimalDuration(v, int64(rate*4), 50*time.Millisecond, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Second {
		t.Errorf("rich link picked %v, want 1s", d)
	}
	// Bandwidth barely above the rate: overhead forces a larger duration.
	d2, err := OptimalDuration(v, int64(rate*1.08), 50*time.Millisecond, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= time.Second {
		t.Errorf("tight link picked %v, want > 1s", d2)
	}
	// Bandwidth below the rate: infeasible fallback, capped at 8s.
	d3, err := OptimalDuration(v, int64(rate*0.5), 50*time.Millisecond, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if d3 > 8*time.Second {
		t.Errorf("infeasible fallback picked %v, want <= 8s", d3)
	}
	// Monotonicity within the feasible regime: more bandwidth never
	// increases the duration. (At the feasibility edge the capped
	// infeasible fallback may sit below the first feasible duration.)
	prev := 17 * time.Second
	for _, mult := range []float64{1.1, 1.5, 2, 4, 8} {
		d, err := OptimalDuration(v, int64(rate*mult), 50*time.Millisecond, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if d > prev {
			t.Errorf("duration grew with bandwidth: %v at %.2fx after %v", d, mult, prev)
		}
		prev = d
	}
}

func TestOptimalDurationErrors(t *testing.T) {
	v := testVideo(t, 10*time.Second, 1)
	if _, err := OptimalDuration(nil, 1000, 0, 0.9); err == nil {
		t.Error("nil video: want error")
	}
	if _, err := OptimalDuration(v, 0, 0, 0.9); err == nil {
		t.Error("zero bandwidth: want error")
	}
	if _, err := OptimalDuration(v, 1000, -time.Second, 0.9); err == nil {
		t.Error("negative lag: want error")
	}
	// Out-of-range safety falls back to the default rather than erroring.
	if _, err := OptimalDuration(v, 1<<30, 0, 42); err != nil {
		t.Errorf("safety fallback: %v", err)
	}
}
