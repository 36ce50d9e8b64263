package player

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestQuickPlayerInvariants feeds random (but time-ordered) completion
// sequences to a player and checks the structural invariants that must hold
// for any input:
//
//  1. the playhead never exceeds the downloaded frontier or the clip length;
//  2. closed stall intervals are disjoint, ordered, and positive;
//  3. total stall time never exceeds elapsed wall time;
//  4. once every segment is delivered, playback eventually finishes with
//     no further stalls.
func TestQuickPlayerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		durs := make([]time.Duration, n)
		for i := range durs {
			durs[i] = time.Duration(500+r.Intn(8000)) * time.Millisecond
		}
		p, err := New(Config{
			SegmentDurations: durs,
			ResumeThreshold:  time.Duration(r.Intn(6000)) * time.Millisecond,
		})
		if err != nil {
			return false
		}
		if err := p.Start(0); err != nil {
			return false
		}

		// Deliver all segments in random order at random increasing times,
		// probing invariants along the way.
		order := r.Perm(n)
		var now time.Duration
		for _, idx := range order {
			now += time.Duration(r.Intn(5000)) * time.Millisecond
			// Probe before the delivery.
			pos := p.Position(now)
			if pos < 0 || pos > p.ClipDuration() {
				t.Logf("seed %d: position %v outside clip", seed, pos)
				return false
			}
			if b := p.BufferedAhead(now); b < 0 {
				t.Logf("seed %d: negative buffer %v", seed, b)
				return false
			}
			if err := p.OnSegmentComplete(idx, now); err != nil {
				t.Logf("seed %d: complete(%d): %v", seed, idx, err)
				return false
			}
		}
		// Let playback drain fully.
		end := now + p.ClipDuration() + time.Second
		m := p.Metrics(end)
		if m.State != StateFinished {
			t.Logf("seed %d: final state %v", seed, m.State)
			return false
		}
		if m.TotalStall < 0 || m.TotalStall > end {
			t.Logf("seed %d: total stall %v out of range", seed, m.TotalStall)
			return false
		}
		var prevEnd time.Duration
		for i, iv := range m.StallIntervals {
			if iv.Duration() <= 0 {
				t.Logf("seed %d: non-positive stall %v", seed, iv)
				return false
			}
			if iv.Start < prevEnd {
				t.Logf("seed %d: overlapping stalls at %d", seed, i)
				return false
			}
			prevEnd = iv.End
		}
		// Startup + playing + stalls == finish time.
		if m.FinishedAt != m.StartupTime+p.ClipDuration()+m.TotalStall {
			t.Logf("seed %d: time accounting: finished=%v startup=%v clip=%v stalls=%v",
				seed, m.FinishedAt, m.StartupTime, p.ClipDuration(), m.TotalStall)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
