// Package media models a synthetic MPEG-4-like elementary video stream.
//
// The paper's splicing experiments depend on two properties of real MPEG-4
// video: the distribution of GOP (Group of Pictures) durations, which a
// scene/motion model drives, and the relative sizes of I, P and B frames,
// which determine the byte overhead of duration-based splicing. This package
// synthesizes streams that reproduce both properties deterministically from a
// seed, replacing the real video + Xuggler/FFmpeg stack used in the paper.
package media

import (
	"fmt"
	"time"
)

// FrameType identifies the coding type of a video frame.
type FrameType uint8

const (
	// FrameI is an intra-coded frame, decodable independently.
	FrameI FrameType = iota
	// FrameP is a predictive frame, dependent on the preceding I/P frame.
	FrameP
	// FrameB is a bidirectional frame, dependent on surrounding frames.
	FrameB
)

// String returns the conventional single-letter name of the frame type.
func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the defined frame types.
func (t FrameType) Valid() bool {
	return t <= FrameB
}

// Frame is one coded picture in the elementary stream.
type Frame struct {
	// Index is the display-order position of the frame in the stream.
	Index int
	// Type is the coding type.
	Type FrameType
	// Bytes is the coded size of the frame.
	Bytes int64
	// PTS is the presentation timestamp relative to stream start.
	PTS time.Duration
	// Duration is the display duration of the frame (1/fps).
	Duration time.Duration
}

// GOP is a closed Group of Pictures: an I frame followed by P/B frames.
// A closed GOP is independently decodable, so it is the smallest unit the
// GOP-based splicer may emit.
type GOP struct {
	// Frames holds the member frames in display order. Frames[0] is the I frame.
	Frames []Frame
}

// Duration returns the total display duration of the GOP.
func (g GOP) Duration() time.Duration {
	var d time.Duration
	for _, f := range g.Frames {
		d += f.Duration
	}
	return d
}

// Bytes returns the total coded size of the GOP.
func (g GOP) Bytes() int64 {
	var n int64
	for _, f := range g.Frames {
		n += f.Bytes
	}
	return n
}

// Start returns the presentation timestamp of the first frame.
// It returns 0 for an empty GOP.
func (g GOP) Start() time.Duration {
	if len(g.Frames) == 0 {
		return 0
	}
	return g.Frames[0].PTS
}

// IFrameBytes returns the size of the leading I frame, or 0 for an empty GOP.
func (g GOP) IFrameBytes() int64 {
	if len(g.Frames) == 0 {
		return 0
	}
	return g.Frames[0].Bytes
}

// Validate checks the closed-GOP structural invariants.
func (g GOP) Validate() error {
	if len(g.Frames) == 0 {
		return fmt.Errorf("media: empty GOP")
	}
	if g.Frames[0].Type != FrameI {
		return fmt.Errorf("media: GOP starts with %s frame, want I", g.Frames[0].Type)
	}
	for i, f := range g.Frames[1:] {
		if f.Type == FrameI {
			return fmt.Errorf("media: interior I frame at offset %d", i+1)
		}
		if !f.Type.Valid() {
			return fmt.Errorf("media: invalid frame type at offset %d", i+1)
		}
	}
	return nil
}
