package media

import (
	"fmt"
	"time"
)

// Video is a synthesized clip: a sequence of closed GOPs.
type Video struct {
	// Config is the encoder configuration that produced the clip.
	Config EncoderConfig
	// ClipDuration is the exact display duration (totalFrames / fps).
	ClipDuration time.Duration
	// Seed is the synthesis seed, kept for reproducibility metadata.
	Seed int64
	// GOPs holds the closed GOPs in display order.
	GOPs []GOP
}

// Duration returns the display duration of the clip.
func (v *Video) Duration() time.Duration { return v.ClipDuration }

// TotalBytes returns the coded size of the whole clip.
func (v *Video) TotalBytes() int64 {
	var n int64
	for _, g := range v.GOPs {
		n += g.Bytes()
	}
	return n
}

// FrameCount returns the number of frames in the clip.
func (v *Video) FrameCount() int {
	var n int
	for _, g := range v.GOPs {
		n += len(g.Frames)
	}
	return n
}

// Frames returns all frames in display order. The returned slice is freshly
// allocated; mutating it does not affect the video.
func (v *Video) Frames() []Frame {
	out := make([]Frame, 0, v.FrameCount())
	for _, g := range v.GOPs {
		out = append(out, g.Frames...)
	}
	return out
}

// Validate checks structural invariants: contiguous, valid closed GOPs whose
// frames cover [0, ClipDuration) exactly.
func (v *Video) Validate() error {
	if len(v.GOPs) == 0 {
		return fmt.Errorf("media: video has no GOPs")
	}
	var at time.Duration
	idx := 0
	for gi, g := range v.GOPs {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("media: GOP %d: %w", gi, err)
		}
		for _, f := range g.Frames {
			if f.PTS != at {
				return fmt.Errorf("media: GOP %d frame %d: PTS %v, want %v", gi, f.Index, f.PTS, at)
			}
			if f.Index != idx {
				return fmt.Errorf("media: GOP %d: frame index %d, want %d", gi, f.Index, idx)
			}
			if f.Bytes <= 0 {
				return fmt.Errorf("media: GOP %d frame %d: non-positive size %d", gi, f.Index, f.Bytes)
			}
			at += f.Duration
			idx++
		}
	}
	if at != v.ClipDuration {
		return fmt.Errorf("media: frames cover %v, want %v", at, v.ClipDuration)
	}
	return nil
}

// MeanIFrameBytes returns the average I-frame size across GOPs, used by the
// duration splicer to cost inserted keyframes when a source GOP is split.
func (v *Video) MeanIFrameBytes() int64 {
	if len(v.GOPs) == 0 {
		return 0
	}
	var sum int64
	for _, g := range v.GOPs {
		sum += g.IFrameBytes()
	}
	return sum / int64(len(v.GOPs))
}
