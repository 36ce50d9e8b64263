package media

import (
	"math/rand"
	"testing"
	"time"
)

func mustSynthesize(t *testing.T, cfg EncoderConfig, d time.Duration, seed int64) *Video {
	t.Helper()
	v, err := Synthesize(cfg, d, seed)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return v
}

func TestFrameTypeString(t *testing.T) {
	tests := []struct {
		t    FrameType
		want string
	}{
		{FrameI, "I"},
		{FrameP, "P"},
		{FrameB, "B"},
		{FrameType(7), "FrameType(7)"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("FrameType(%d).String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}

func TestFrameTypeValid(t *testing.T) {
	if !FrameI.Valid() || !FrameP.Valid() || !FrameB.Valid() {
		t.Error("defined frame types should be valid")
	}
	if FrameType(3).Valid() {
		t.Error("FrameType(3) should be invalid")
	}
}

func TestGOPValidate(t *testing.T) {
	fd := time.Second / 24
	tests := []struct {
		name    string
		frames  []Frame
		wantErr bool
	}{
		{"empty", nil, true},
		{"starts with P", []Frame{{Type: FrameP, Duration: fd}}, true},
		{"interior I", []Frame{{Type: FrameI, Duration: fd}, {Type: FrameI, Duration: fd}}, true},
		{"ok single I", []Frame{{Type: FrameI, Duration: fd}}, false},
		{"ok IPB", []Frame{{Type: FrameI, Duration: fd}, {Type: FrameP, Duration: fd}, {Type: FrameB, Duration: fd}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := GOP{Frames: tt.frames}.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSynthesizeValid(t *testing.T) {
	v := mustSynthesize(t, DefaultEncoderConfig(), 2*time.Minute, 1)
	if err := v.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultEncoderConfig()
	a := mustSynthesize(t, cfg, 30*time.Second, 42)
	b := mustSynthesize(t, cfg, 30*time.Second, 42)
	if a.TotalBytes() != b.TotalBytes() || a.FrameCount() != b.FrameCount() || len(a.GOPs) != len(b.GOPs) {
		t.Fatalf("same seed produced different clips: %d/%d bytes, %d/%d frames",
			a.TotalBytes(), b.TotalBytes(), a.FrameCount(), b.FrameCount())
	}
	c := mustSynthesize(t, cfg, 30*time.Second, 43)
	same := len(a.GOPs) == len(c.GOPs)
	if same {
		for i := range a.GOPs {
			if a.GOPs[i].Duration() != c.GOPs[i].Duration() {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical GOP structure; RNG unused?")
	}
}

func TestSynthesizeBitrate(t *testing.T) {
	cfg := DefaultEncoderConfig()
	v := mustSynthesize(t, cfg, 2*time.Minute, 7)
	want := float64(cfg.BytesPerSecond) * v.Duration().Seconds()
	got := float64(v.TotalBytes())
	if ratio := got / want; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("total bytes %v, want within 1%% of %v (ratio %.4f)", got, want, ratio)
	}
}

func TestSynthesizeGOPDurationSpread(t *testing.T) {
	// The paper's GOP-splicing argument needs both very short and very long
	// GOPs. Check the synthetic clip exhibits that spread.
	v := mustSynthesize(t, DefaultEncoderConfig(), 2*time.Minute, 3)
	var min, max time.Duration = time.Hour, 0
	for _, g := range v.GOPs {
		d := g.Duration()
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min > 2*time.Second {
		t.Errorf("shortest GOP %v, want <= 2s (high-motion scenes)", min)
	}
	if max < 6*time.Second {
		t.Errorf("longest GOP %v, want >= 6s (stationary scenes)", max)
	}
}

func TestSynthesizeIFrameDominance(t *testing.T) {
	v := mustSynthesize(t, DefaultEncoderConfig(), time.Minute, 5)
	for gi, g := range v.GOPs {
		if len(g.Frames) < 6 {
			continue // tiny GOPs may not have room for the pattern
		}
		iSize := g.IFrameBytes()
		var pSum, pN int64
		for _, f := range g.Frames[1:] {
			if f.Type == FrameP {
				pSum += f.Bytes
				pN++
			}
		}
		if pN == 0 {
			continue
		}
		if avgP := pSum / pN; iSize < 3*avgP {
			t.Errorf("GOP %d: I frame %dB not >> P avg %dB", gi, iSize, avgP)
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	cfg := DefaultEncoderConfig()
	tests := []struct {
		name string
		mut  func(*EncoderConfig)
		dur  time.Duration
	}{
		{"zero fps", func(c *EncoderConfig) { c.FPS = 0 }, time.Minute},
		{"zero rate", func(c *EncoderConfig) { c.BytesPerSecond = 0 }, time.Minute},
		{"bad gop bounds", func(c *EncoderConfig) { c.MinGOP = 2 * time.Second; c.MaxGOP = time.Second }, time.Minute},
		{"negative bframes", func(c *EncoderConfig) { c.BFrames = -1 }, time.Minute},
		{"iweight<1", func(c *EncoderConfig) { c.IWeight = 0.5 }, time.Minute},
		{"bweight>1", func(c *EncoderConfig) { c.BWeight = 1.5 }, time.Minute},
		{"zero duration", func(c *EncoderConfig) {}, 0},
		{"bad scenes", func(c *EncoderConfig) { c.Scenes.MeanSceneDuration = 0 }, time.Minute},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := cfg
			tt.mut(&c)
			if _, err := Synthesize(c, tt.dur, 1); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestSceneModelCoversDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	total := 90 * time.Second
	scenes, err := DefaultSceneModel().Generate(rng, total)
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for i, s := range scenes {
		if s.Start != at {
			t.Fatalf("scene %d starts at %v, want %v", i, s.Start, at)
		}
		if s.Duration <= 0 {
			t.Fatalf("scene %d has non-positive duration", i)
		}
		if s.Motion < 0 || s.Motion > 1 {
			t.Fatalf("scene %d motion %v outside [0,1]", i, s.Motion)
		}
		at += s.Duration
	}
	if at != total {
		t.Fatalf("scenes cover %v, want %v", at, total)
	}
}

func TestSceneModelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := SceneModel{MeanSceneDuration: 0, MinSceneDuration: time.Second}
	if _, err := bad.Generate(rng, time.Minute); err == nil {
		t.Error("zero mean: want error")
	}
	ok := DefaultSceneModel()
	if _, err := ok.Generate(rng, 0); err == nil {
		t.Error("zero total: want error")
	}
	neg := DefaultSceneModel()
	neg.SceneSigma = -1
	if _, err := neg.Generate(rng, time.Minute); err == nil {
		t.Error("negative sigma: want error")
	}
}

func TestVideoAccessors(t *testing.T) {
	v := mustSynthesize(t, DefaultEncoderConfig(), 10*time.Second, 2)
	frames := v.Frames()
	if len(frames) != v.FrameCount() {
		t.Errorf("Frames() len %d, want %d", len(frames), v.FrameCount())
	}
	if v.MeanIFrameBytes() <= 0 {
		t.Error("MeanIFrameBytes should be positive")
	}
	var sum int64
	for _, f := range frames {
		sum += f.Bytes
	}
	if sum != v.TotalBytes() {
		t.Errorf("frame byte sum %d != TotalBytes %d", sum, v.TotalBytes())
	}
	// End of last frame equals clip duration.
	last := frames[len(frames)-1]
	if end := last.PTS + last.Duration; end != v.Duration() {
		t.Errorf("last frame ends at %v, want %v", end, v.Duration())
	}
}

func TestEmptyVideoHelpers(t *testing.T) {
	var v Video
	if v.MeanIFrameBytes() != 0 || v.TotalBytes() != 0 {
		t.Error("empty video helpers should return 0")
	}
	if err := v.Validate(); err == nil {
		t.Error("empty video should fail validation")
	}
	var g GOP
	if g.Start() != 0 || g.IFrameBytes() != 0 {
		t.Error("empty GOP helpers should return 0")
	}
}

func TestFramePatternWithinGOP(t *testing.T) {
	cfg := DefaultEncoderConfig()
	cfg.BFrames = 2
	v := mustSynthesize(t, cfg, 20*time.Second, 21)
	for gi, g := range v.GOPs {
		sinceRef := 0
		for fi, f := range g.Frames {
			switch {
			case fi == 0:
				if f.Type != FrameI {
					t.Fatalf("GOP %d frame 0 is %s", gi, f.Type)
				}
			case f.Type == FrameB:
				sinceRef++
				if sinceRef > cfg.BFrames {
					t.Fatalf("GOP %d frame %d: %d consecutive B frames", gi, fi, sinceRef)
				}
			case f.Type == FrameP:
				sinceRef = 0
			default:
				t.Fatalf("GOP %d frame %d: unexpected %s", gi, fi, f.Type)
			}
		}
	}
}

func TestNoBFramesMode(t *testing.T) {
	cfg := DefaultEncoderConfig()
	cfg.BFrames = 0
	v := mustSynthesize(t, cfg, 10*time.Second, 3)
	for _, f := range v.Frames() {
		if f.Type == FrameB {
			t.Fatal("BFrames=0 still produced B frames")
		}
	}
}

func TestSceneCutsForceIFrames(t *testing.T) {
	v := mustSynthesize(t, DefaultEncoderConfig(), time.Minute, 17)
	// Regenerate the same scene sequence the encoder used.
	rng := rand.New(rand.NewSource(17))
	scenes, err := v.Config.Scenes.Generate(rng, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	frameDur := time.Second / time.Duration(v.Config.FPS)
	starts := make(map[time.Duration]bool)
	for _, g := range v.GOPs {
		starts[g.Start()] = true
	}
	for _, sc := range scenes[1:] {
		// The first frame at or after the scene cut must start a GOP.
		frame := ((sc.Start + frameDur - 1) / frameDur) * frameDur
		if frame >= v.Duration() {
			continue
		}
		if !starts[frame] {
			t.Errorf("scene cut at %v: no GOP starts at frame time %v", sc.Start, frame)
		}
	}
}
