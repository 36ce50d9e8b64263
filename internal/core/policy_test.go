package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAdaptivePoolFormula(t *testing.T) {
	p := AdaptivePool{}
	tests := []struct {
		name      string
		bandwidth int64
		buffered  time.Duration
		segBytes  int64
		want      int
	}{
		// Paper examples: B*T/W segments fit in T seconds.
		{"exact multiple", 512 * 1024, 4 * time.Second, 512 * 1024, 4},
		{"floor", 512 * 1024, 4 * time.Second, 700 * 1024, 2},
		{"below one clamps to one", 100, time.Second, 1 << 20, 1},
		{"startup T=0", 512 * 1024, 0, 512 * 1024, 1},
		{"stalled T<0", 512 * 1024, -time.Second, 512 * 1024, 1},
		{"zero bandwidth", 0, 4 * time.Second, 512 * 1024, 1},
		{"zero segment", 512 * 1024, 4 * time.Second, 0, 1},
		{"large buffer", 128 * 1024, 30 * time.Second, 512 * 1024, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.PoolSize(tt.bandwidth, tt.buffered, tt.segBytes); got != tt.want {
				t.Errorf("PoolSize(%d, %v, %d) = %d, want %d",
					tt.bandwidth, tt.buffered, tt.segBytes, got, tt.want)
			}
		})
	}
}

func TestFixedPool(t *testing.T) {
	if got := (FixedPool{K: 4}).PoolSize(0, 0, 0); got != 4 {
		t.Errorf("FixedPool(4) = %d, want 4", got)
	}
	if got := (FixedPool{K: 0}).PoolSize(1<<20, time.Minute, 1); got != 1 {
		t.Errorf("FixedPool(0) = %d, want 1", got)
	}
	if name := (FixedPool{K: 8}).Name(); name != "pool-8" {
		t.Errorf("Name() = %q, want pool-8", name)
	}
	if name := (AdaptivePool{}).Name(); name != "adaptive" {
		t.Errorf("Name() = %q, want adaptive", name)
	}
}

func TestMaxSegmentBytes(t *testing.T) {
	tests := []struct {
		bandwidth int64
		buffered  time.Duration
		want      int64
	}{
		{128 * 1024, 4 * time.Second, 512 * 1024},
		{0, 4 * time.Second, 0},
		{128 * 1024, 0, 0},
		{-1, time.Second, 0},
		{256 * 1024, 500 * time.Millisecond, 128 * 1024},
	}
	for _, tt := range tests {
		if got := MaxSegmentBytes(tt.bandwidth, tt.buffered); got != tt.want {
			t.Errorf("MaxSegmentBytes(%d, %v) = %d, want %d",
				tt.bandwidth, tt.buffered, got, tt.want)
		}
	}
}

// Property: PoolSize is >= 1 always, monotone non-decreasing in bandwidth
// and buffer, monotone non-increasing in segment size.
func TestQuickAdaptiveMonotonicity(t *testing.T) {
	p := AdaptivePool{}
	f := func(b1, b2 uint32, t1, t2 uint16, w1, w2 uint32) bool {
		B1, B2 := int64(b1%(8<<20))+1, int64(b2%(8<<20))+1
		if B1 > B2 {
			B1, B2 = B2, B1
		}
		T1 := time.Duration(t1%60) * time.Second
		T2 := time.Duration(t2%60) * time.Second
		if T1 > T2 {
			T1, T2 = T2, T1
		}
		W1, W2 := int64(w1%(16<<20))+1, int64(w2%(16<<20))+1
		if W1 > W2 {
			W1, W2 = W2, W1
		}
		base := p.PoolSize(B1, T1, W2)
		if base < 1 {
			return false
		}
		if p.PoolSize(B2, T1, W2) < base {
			return false // more bandwidth can't shrink the pool
		}
		if p.PoolSize(B1, T2, W2) < base {
			return false // deeper buffer can't shrink the pool
		}
		if p.PoolSize(B1, T1, W1) < base {
			return false // smaller segments can't shrink the pool
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Equation 1 guarantees k*W <= B*T whenever k > 1; i.e. the pool's
// total bytes are downloadable within the buffered horizon.
func TestQuickAdaptiveNoStallBound(t *testing.T) {
	p := AdaptivePool{}
	f := func(b uint32, ts uint16, w uint32) bool {
		B := int64(b%(8<<20)) + 1
		T := time.Duration(ts%120) * time.Second
		W := int64(w%(16<<20)) + 1
		k := p.PoolSize(B, T, W)
		if k == 1 {
			return true // the mandatory minimum may exceed the bound
		}
		return float64(k)*float64(W) <= float64(B)*T.Seconds()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the Section IV rule is the inverse of Equation 1 — a segment of
// MaxSegmentBytes(B, T) yields a pool of exactly 1 under Equation 1... or
// more precisely, any segment larger than B*T forces k = 1.
func TestQuickSectionIVInverse(t *testing.T) {
	p := AdaptivePool{}
	f := func(b uint32, ts uint16) bool {
		B := int64(b%(8<<20)) + 1
		T := time.Duration(ts%120+1) * time.Second
		W := MaxSegmentBytes(B, T)
		if W <= 0 {
			return false
		}
		// At exactly W = B*T: k = 1. Any larger: still 1.
		return p.PoolSize(B, T, W) == 1 && p.PoolSize(B, T, W+1) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
