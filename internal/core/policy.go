// Package core implements the paper's download-policy contribution: the
// adaptive pooling formula (Equation 1) that bounds how many segments a peer
// downloads simultaneously, the fixed-pool baseline it is evaluated against,
// the scheduler that fills that pool on both stacks (scheduler.go), and the
// Section IV segment-size rule for hybrid CDN/P2P systems.
package core

import (
	"fmt"
	"time"
)

// Policy decides how many segments a peer should download simultaneously.
//
// Implementations must be safe for concurrent use; both provided policies
// are stateless.
type Policy interface {
	// Name returns a short label for reports ("adaptive", "pool-4", ...).
	Name() string
	// PoolSize returns the target number of simultaneous segment downloads
	// given the estimated peer bandwidth in bytes/second, the duration of
	// video already buffered ahead of the playhead, and the (typical)
	// segment size in bytes. The result is always at least 1.
	PoolSize(bandwidth int64, buffered time.Duration, segmentBytes int64) int
}

// AdaptivePool is the paper's Equation 1:
//
//	k = max( floor(B·T / W), 1 )
//
// with B the available bandwidth (bytes/s), T the buffered playback horizon
// (seconds), and W the segment size (bytes). The intuition: to avoid a stall,
// every in-flight segment must finish within T seconds, and T seconds of
// bandwidth B can carry at most B·T/W segments. At startup, after a stall, or
// when the buffer has drained (T = 0), the peer downloads exactly one segment.
type AdaptivePool struct{}

var _ Policy = AdaptivePool{}

// Name implements Policy.
func (p AdaptivePool) Name() string { return "adaptive" }

// PoolSize implements Policy using Equation 1.
func (p AdaptivePool) PoolSize(bandwidth int64, buffered time.Duration, segmentBytes int64) int {
	if bandwidth <= 0 || buffered <= 0 || segmentBytes <= 0 {
		return 1
	}
	k := int(float64(bandwidth) * buffered.Seconds() / float64(segmentBytes))
	if k < 1 {
		k = 1
	}
	return k
}

// FixedPool is the baseline in the paper's Figure 5: the peer always keeps a
// constant number of segment downloads in flight.
type FixedPool struct {
	// K is the pool size. Values below 1 behave as 1.
	K int
}

var _ Policy = FixedPool{}

// Name implements Policy.
func (p FixedPool) Name() string { return fmt.Sprintf("pool-%d", p.k()) }

func (p FixedPool) k() int {
	if p.K < 1 {
		return 1
	}
	return p.K
}

// PoolSize implements Policy; it ignores all inputs.
func (p FixedPool) PoolSize(int64, time.Duration, int64) int { return p.k() }

// MaxSegmentBytes is the paper's Section IV rule for hybrid CDN/P2P systems:
// when a client downloads one segment at a time from a CDN, the largest
// segment that cannot cause a stall is W = B·T. It returns 0 when either
// input is non-positive (no safe prefetch is possible: the client must be
// conservative and the caller should fall back to its minimum segment size).
func MaxSegmentBytes(bandwidth int64, buffered time.Duration) int64 {
	if bandwidth <= 0 || buffered <= 0 {
		return 0
	}
	return int64(float64(bandwidth) * buffered.Seconds())
}
