package splicer

import (
	"fmt"
	"time"
)

// Stats summarizes a spliced clip: the byte-overhead and size-spread
// comparison in the paper's Section II.
type Stats struct {
	// Count is the number of segments.
	Count int
	// TotalBytes is the total transfer size of all segments.
	TotalBytes int64
	// SourceBytes is the coded size of the source stream.
	SourceBytes int64
	// OverheadBytes is TotalBytes - SourceBytes (inserted I frames).
	OverheadBytes int64
	// InsertedIFrames counts segments whose first frame was re-encoded.
	InsertedIFrames int
	// MinBytes and MaxBytes bound the segment transfer sizes.
	MinBytes, MaxBytes int64
	// MinDuration and MaxDuration bound the segment display durations.
	MinDuration, MaxDuration time.Duration
}

// OverheadRatio returns OverheadBytes / SourceBytes, the fractional cost of
// the splicing technique. It returns 0 for an empty stream.
func (s Stats) OverheadRatio() float64 {
	if s.SourceBytes == 0 {
		return 0
	}
	return float64(s.OverheadBytes) / float64(s.SourceBytes)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("segments=%d bytes=%d overhead=%.2f%% size=[%d..%d] dur=[%v..%v]",
		s.Count, s.TotalBytes, 100*s.OverheadRatio(), s.MinBytes, s.MaxBytes, s.MinDuration, s.MaxDuration)
}

// ComputeStats summarizes segs.
func ComputeStats(segs []Segment) Stats {
	var st Stats
	st.Count = len(segs)
	for i, s := range segs {
		b := s.Bytes()
		d := s.Duration()
		st.TotalBytes += b
		st.SourceBytes += s.SourceBytes
		if s.InsertedIFrame {
			st.InsertedIFrames++
		}
		if i == 0 || b < st.MinBytes {
			st.MinBytes = b
		}
		if b > st.MaxBytes {
			st.MaxBytes = b
		}
		if i == 0 || d < st.MinDuration {
			st.MinDuration = d
		}
		if d > st.MaxDuration {
			st.MaxDuration = d
		}
	}
	st.OverheadBytes = st.TotalBytes - st.SourceBytes
	return st
}
