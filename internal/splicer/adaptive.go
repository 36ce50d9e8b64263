package splicer

import (
	"fmt"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/media"
)

// AdaptiveSplicer implements the splicing extension the paper sketches in
// Sections IV and VIII: instead of a fixed duration, the segment duration is
// derived from the hybrid-CDN size bound W <= B*T, so that a client that
// downloads one segment at a time with bandwidth B and buffer depth T never
// stalls. Given the clip's coded rate R, the target duration is
//
//	target = (B * T) / R
//
// clamped to [minAdaptiveTarget, maxAdaptiveTarget]. The cut itself is
// duration splicing.
type AdaptiveSplicer struct {
	// Bandwidth is the expected available bandwidth B in bytes/second.
	Bandwidth int64
	// BufferDepth is the buffered-playback horizon T the client maintains.
	BufferDepth time.Duration
}

// The clamp on the adaptive splicer's derived duration.
const (
	minAdaptiveTarget = time.Second
	maxAdaptiveTarget = 16 * time.Second
)

var _ Splicer = AdaptiveSplicer{}

// Name implements Splicer.
func (AdaptiveSplicer) Name() string { return "adaptive" }

// Kind implements Splicer.
func (AdaptiveSplicer) Kind() Kind { return KindAdaptive }

// TargetFor returns the duration target the splicer would use for v.
func (a AdaptiveSplicer) TargetFor(v *media.Video) (time.Duration, error) {
	if a.Bandwidth <= 0 {
		return 0, fmt.Errorf("splicer: adaptive: non-positive bandwidth %d", a.Bandwidth)
	}
	if a.BufferDepth <= 0 {
		return 0, fmt.Errorf("splicer: adaptive: non-positive buffer depth %v", a.BufferDepth)
	}
	if v == nil || v.Duration() <= 0 || v.TotalBytes() <= 0 {
		return 0, fmt.Errorf("splicer: adaptive: empty video")
	}
	rate := float64(v.TotalBytes()) / v.Duration().Seconds() // bytes/s
	maxBytes := float64(core.MaxSegmentBytes(a.Bandwidth, a.BufferDepth))
	target := time.Duration(maxBytes / rate * float64(time.Second))
	return min(max(target, minAdaptiveTarget), maxAdaptiveTarget), nil
}

// Splice implements Splicer.
func (a AdaptiveSplicer) Splice(v *media.Video) ([]Segment, error) {
	target, err := a.TargetFor(v)
	if err != nil {
		return nil, err
	}
	return DurationSplicer{Target: target}.Splice(v)
}

// OptimalDuration is the segment-duration selection algorithm the paper
// leaves as future work ("We did not propose an algorithm to determine the
// optimal segment size"). It balances the two costs of duration splicing:
//
//   - byte overhead: one inserted I frame (~iBytes) per segment inflates the
//     stream by iBytes/(rate*d), which hurts small d;
//   - startup and stall depth grow linearly with d, which hurts large d.
//
// A duration d is *feasible* when the overhead-inflated demand, including
// the per-segment request lag, fits within safety*bandwidth:
//
//	demand(d) = rate * (1 + iBytes/(rate*d)) * (d+reqLag)/d  <=  safety*B
//
// OptimalDuration returns the smallest feasible candidate (startup dominates
// once streaming is sustainable). When no candidate is feasible (bandwidth
// at or below the clip rate) it returns the minimum-demand candidate of at
// most 8 seconds: beyond that, the marginal overhead saving is dwarfed by
// the startup and stall depth the longer segments cost.
func OptimalDuration(v *media.Video, bandwidth int64, reqLag time.Duration, safety float64) (time.Duration, error) {
	if v == nil || v.Duration() <= 0 || v.TotalBytes() <= 0 {
		return 0, fmt.Errorf("splicer: optimal duration: empty video")
	}
	if bandwidth <= 0 {
		return 0, fmt.Errorf("splicer: optimal duration: non-positive bandwidth %d", bandwidth)
	}
	if reqLag < 0 {
		return 0, fmt.Errorf("splicer: optimal duration: negative request lag %v", reqLag)
	}
	if safety <= 0 || safety > 1 {
		safety = 0.95
	}
	rate := float64(v.TotalBytes()) / v.Duration().Seconds()
	iBytes := float64(v.MeanIFrameBytes())
	budget := safety * float64(bandwidth)

	candidates := []time.Duration{
		time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second,
		6 * time.Second, 8 * time.Second, 12 * time.Second, 16 * time.Second,
	}
	demand := func(d time.Duration) float64 {
		ds := d.Seconds()
		perSegment := rate*ds + iBytes            // bytes per segment on the wire
		wall := ds * ds / (ds + reqLag.Seconds()) // seconds of wire time available per segment
		return perSegment / wall
	}
	best := candidates[0]
	bestDemand := demand(best)
	for _, d := range candidates {
		dem := demand(d)
		if dem <= budget {
			return d, nil // smallest feasible wins: startup dominates
		}
		if d <= 8*time.Second && dem < bestDemand {
			best, bestDemand = d, dem
		}
	}
	return best, nil
}
