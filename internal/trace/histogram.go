package trace

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram layout is fixed and shared by every histogram in the
// process: HistBuckets log-spaced buckets whose upper bounds are the
// powers of two 2^0 .. 2^(HistBuckets-1) in raw units, plus an implicit
// +Inf overflow bucket. Power-of-two bounds are exact in float64, so the
// rendered bucket boundaries — and therefore the Prometheus text
// exposition — are byte-stable across platforms and runs. 48 doublings
// cover raw values up to ~1.4e14: microseconds out to 4.5 years and
// bytes out to 256 TB, far beyond anything the stack records.
const (
	// HistBuckets is the number of finite buckets.
	HistBuckets = 48
	// histSlots adds the +Inf overflow bucket.
	histSlots = HistBuckets + 1
)

// HistBucketUpper returns the upper bound (inclusive) of finite bucket i
// in raw units. Bucket 0 holds values <= 1; bucket i holds values in
// (2^(i-1), 2^i].
func HistBucketUpper(i int) int64 { return 1 << uint(i) }

// histBucketIndex maps a raw observation to its bucket slot. Values
// below 1 (including negatives, which callers should not produce but
// which must not corrupt the layout) land in bucket 0; values above the
// last finite bound land in the +Inf slot.
//
//lint:hotpath runs on every observation
func histBucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	// For v in (2^(i-1), 2^i], bits.Len64(v-1) = i.
	i := bits.Len64(uint64(v - 1))
	if i >= HistBuckets {
		return HistBuckets // +Inf slot
	}
	return i
}

// histState is the shared storage behind Histogram handles. All fields
// are updated with atomic operations only: recording takes no lock, and
// because every field is an integer (exact addition commutes), totals
// are identical whatever order concurrent observers interleave in.
type histState struct {
	// scale converts raw units to display units at exposition time
	// (1e-6 for histograms that record microseconds and expose seconds).
	scale float64
	// counts[i] is the number of observations in bucket slot i
	// (non-cumulative; slot HistBuckets is the +Inf overflow).
	counts [histSlots]int64
	count  int64
	sum    int64 // exact sum of raw observations
}

// Histogram is a fixed-bucket log-spaced histogram handle. The zero
// Histogram (from a nil Registry) is a no-op, mirroring Counter and
// Gauge, so instrumented code never branches on whether metrics are
// enabled. Recording is lock-free and allocation-free.
type Histogram struct {
	h *histState
}

// Observe records one raw observation.
//
//lint:hotpath called per QoE event; the benchmarks assert 0 allocs/op
func (h Histogram) Observe(v int64) {
	if h.h == nil {
		return
	}
	atomic.AddInt64(&h.h.counts[histBucketIndex(v)], 1)
	atomic.AddInt64(&h.h.count, 1)
	atomic.AddInt64(&h.h.sum, v)
}

// ObserveDuration records a duration in microseconds — the raw unit of
// every *_seconds histogram (their scale of 1e-6 converts back to
// seconds at exposition).
//
//lint:hotpath called per QoE event; the benchmarks assert 0 allocs/op
func (h Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// snapshot copies the live state into a HistStat.
func (h *histState) snapshot(name string) HistStat {
	st := HistStat{Name: name, Scale: h.scale}
	for i := range h.counts {
		st.Counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	st.Count = atomic.LoadInt64(&h.count)
	st.Sum = atomic.LoadInt64(&h.sum)
	return st
}

// HistStat is one histogram's snapshot: an immutable copy of the bucket
// counts plus the exact count and raw-unit sum.
type HistStat struct {
	Name  string  `json:"name"`
	Scale float64 `json:"scale"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	// Counts holds per-bucket (non-cumulative) observation counts; the
	// last slot is the +Inf overflow bucket.
	Counts [histSlots]int64 `json:"counts"`
}

// SumScaled returns the sum in display units.
func (s HistStat) SumScaled() float64 { return float64(s.Sum) * s.scaleOr1() }

func (s HistStat) scaleOr1() float64 {
	if s.Scale > 0 {
		return s.Scale
	}
	return 1
}

// UpperScaled returns finite bucket i's upper bound in display units.
func (s HistStat) UpperScaled(i int) float64 {
	return float64(HistBucketUpper(i)) * s.scaleOr1()
}

// Quantile estimates the q-quantile (0 <= q <= 1) in display units by
// locating the bucket containing the target rank and interpolating
// linearly inside it. The estimate is a pure function of the snapshot,
// so repeated calls — and runs with identical recordings — agree bit
// for bit. Returns 0 when the histogram is empty.
func (s HistStat) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum+1e-9 < rank {
			continue
		}
		// Target rank falls in bucket i: interpolate between the bucket's
		// bounds by the rank's position within it.
		var lo, hi float64
		switch {
		case i == 0:
			lo, hi = 0, 1
		case i >= HistBuckets:
			// Overflow bucket: no finite upper bound; report the lower one.
			return float64(HistBucketUpper(HistBuckets-1)) * s.scaleOr1()
		default:
			lo, hi = float64(HistBucketUpper(i-1)), float64(HistBucketUpper(i))
		}
		frac := (rank - prev) / float64(c)
		return (lo + (hi-lo)*frac) * s.scaleOr1()
	}
	// Unreachable when Count matches the bucket totals; be defensive.
	return float64(HistBucketUpper(HistBuckets-1)) * s.scaleOr1()
}
