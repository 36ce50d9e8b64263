// Package splicer implements the paper's video splicing techniques: GOP-based
// splicing (segments are closed GOPs, zero byte overhead, heavy-tailed sizes)
// and duration-based splicing (fixed-duration, frame-accurate segments that
// pay an inserted I frame at each mid-GOP cut). It also provides the adaptive
// splicer sketched in the paper's Section IV/VIII, which picks the segment
// duration from the hybrid-CDN bound W <= B*T.
package splicer

import (
	"fmt"
	"time"

	"p2psplice/internal/media"
)

// Kind identifies a splicing technique.
type Kind uint8

const (
	// KindGOP splices at closed-GOP boundaries.
	KindGOP Kind = iota
	// KindDuration splices at fixed display-duration boundaries.
	KindDuration
	// KindAdaptive is duration splicing with a size-derived target duration.
	KindAdaptive
)

// String returns a short human-readable name.
func (k Kind) String() string {
	switch k {
	case KindGOP:
		return "gop"
	case KindDuration:
		return "duration"
	case KindAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Segment is one spliced piece of the clip. Every segment starts with an I
// frame and is independently playable.
type Segment struct {
	// Index is the segment's position in playback order.
	Index int
	// Start is the presentation time of the segment's first frame.
	Start time.Duration
	// Frames holds the member frames in display order. When the splicer cut
	// mid-GOP, Frames[0] has been re-encoded as an I frame (its Type and
	// Bytes differ from the source frame; Index/PTS/Duration are preserved).
	Frames []media.Frame
	// InsertedIFrame records whether Frames[0] was re-encoded as an I frame
	// by the splicer (the duration splicer's byte overhead).
	InsertedIFrame bool
	// SourceBytes is the coded size of the segment's frames as they appear
	// in the source stream, before any I-frame insertion.
	SourceBytes int64
}

// Duration returns the display duration of the segment.
func (s Segment) Duration() time.Duration {
	var d time.Duration
	for _, f := range s.Frames {
		d += f.Duration
	}
	return d
}

// Bytes returns the transfer size of the segment (including any inserted
// I-frame overhead).
func (s Segment) Bytes() int64 {
	var n int64
	for _, f := range s.Frames {
		n += f.Bytes
	}
	return n
}

// End returns the presentation time at which the segment's last frame ends.
func (s Segment) End() time.Duration {
	return s.Start + s.Duration()
}

// Validate checks that the segment is independently playable.
func (s Segment) Validate() error {
	if len(s.Frames) == 0 {
		return fmt.Errorf("splicer: segment %d is empty", s.Index)
	}
	if s.Frames[0].Type != media.FrameI {
		return fmt.Errorf("splicer: segment %d starts with %s frame", s.Index, s.Frames[0].Type)
	}
	if s.Frames[0].PTS != s.Start {
		return fmt.Errorf("splicer: segment %d Start %v != first frame PTS %v", s.Index, s.Start, s.Frames[0].PTS)
	}
	return nil
}

// Splicer cuts a video into segments.
type Splicer interface {
	// Name returns a short label for reports ("gop", "4s", ...).
	Name() string
	// Kind returns the technique family.
	Kind() Kind
	// Splice cuts the clip. The returned segments partition the clip's
	// frames in order.
	Splice(v *media.Video) ([]Segment, error)
}

// ValidateSegments checks that segs exactly partition v: contiguous frame
// indices, contiguous presentation times covering the whole clip, and each
// segment independently playable.
func ValidateSegments(v *media.Video, segs []Segment) error {
	if len(segs) == 0 {
		return fmt.Errorf("splicer: no segments")
	}
	var at time.Duration
	idx := 0
	for i, s := range segs {
		if s.Index != i {
			return fmt.Errorf("splicer: segment %d has Index %d", i, s.Index)
		}
		if err := s.Validate(); err != nil {
			return err
		}
		if s.Start != at {
			return fmt.Errorf("splicer: segment %d starts at %v, want %v", i, s.Start, at)
		}
		for _, f := range s.Frames {
			if f.Index != idx {
				return fmt.Errorf("splicer: segment %d: frame index %d, want %d", i, f.Index, idx)
			}
			idx++
			at += f.Duration
		}
	}
	if at != v.Duration() {
		return fmt.Errorf("splicer: segments cover %v, want %v", at, v.Duration())
	}
	if idx != v.FrameCount() {
		return fmt.Errorf("splicer: segments contain %d frames, want %d", idx, v.FrameCount())
	}
	return nil
}
