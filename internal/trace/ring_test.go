package trace

import (
	"sync"
	"testing"
	"time"
)

// TestRingBoundsAndEviction pins the counting Ring: Len is min(sampled,
// capacity) and Dropped the admitted events beyond the capacity, with
// and without a sampler in front.
func TestRingBoundsAndEviction(t *testing.T) {
	// keepPlayer admits every CatPlayer event and rejects every CatFlow one.
	keepPlayer := NewHashSampler(1, 0, map[string]float64{CatPlayer: 1})
	for _, tc := range []struct {
		name           string
		capacity       int
		sampler        *HashSampler
		kept, rejected int // CatPlayer and CatFlow events emitted
		wantLen        int
		want           RingCounts
	}{
		{"capacity 1", 1, nil, 5, 0, 1, RingCounts{Sampled: 5, Dropped: 4}},
		{"capacity 0 is 1", 0, nil, 2, 0, 1, RingCounts{Sampled: 2, Dropped: 1}},
		{"below capacity", 3, nil, 2, 0, 2, RingCounts{Sampled: 2}},
		{"at capacity", 3, nil, 3, 0, 3, RingCounts{Sampled: 3}},
		{"past capacity", 3, nil, 5, 0, 3, RingCounts{Sampled: 5, Dropped: 2}},
		{"sampled capacity 1", 1, keepPlayer, 3, 4, 1, RingCounts{Sampled: 3, Rejected: 4, Dropped: 2}},
		{"sampled at capacity", 3, keepPlayer, 3, 2, 3, RingCounts{Sampled: 3, Rejected: 2}},
		{"sampled past capacity", 3, keepPlayer, 5, 5, 3, RingCounts{Sampled: 5, Rejected: 5, Dropped: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(tc.capacity, tc.sampler)
			for i := 0; i < max(tc.kept, tc.rejected); i++ {
				if i < tc.kept {
					r.Emit(Event{At: time.Duration(i), Peer: i, Seg: -1, Cat: CatPlayer, Name: EvStallBegin})
				}
				if i < tc.rejected {
					r.Emit(Event{At: time.Duration(i), Peer: i, Seg: -1, Cat: CatFlow, Name: EvFlowComplete})
				}
			}
			if got := r.Len(); got != tc.wantLen {
				t.Errorf("Len = %d, want %d", got, tc.wantLen)
			}
			if got := r.Counts(); got != tc.want {
				t.Errorf("Counts = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestHashSamplerPureAndSeeded(t *testing.T) {
	s := NewHashSampler(42, 0.5, map[string]float64{CatPlayer: 1})
	ev := Event{At: time.Second, Peer: 7, Seg: 3, Cat: CatFlow, Name: EvFlowComplete}
	first := s.Keep(ev)
	for i := 0; i < 100; i++ {
		if s.Keep(ev) != first {
			t.Fatal("sampler verdict varies for an identical event")
		}
	}
	if !s.Keep(Event{Cat: CatPlayer, Name: EvStallBegin, Peer: 1, Seg: -1}) {
		t.Error("per-category rate 1 must keep every event")
	}
	if NewHashSampler(1, 0, nil).Keep(ev) {
		t.Error("rate 0 must reject")
	}
	if !NewHashSampler(1, 1, nil).Keep(ev) {
		t.Error("rate 1 must keep")
	}
	var nilSampler *HashSampler
	if !nilSampler.Keep(ev) {
		t.Error("nil sampler must keep everything")
	}

	// The kept fraction over many distinct events approximates the rate,
	// and a different seed picks a different subset of the same stream.
	kept, diff := 0, 0
	s2 := NewHashSampler(43, 0.5, nil)
	s3 := NewHashSampler(42, 0.5, nil)
	for peer := 0; peer < 200; peer++ {
		for seg := 0; seg < 50; seg++ {
			e := Event{Cat: CatFlow, Name: EvFlowComplete, Peer: peer, Seg: seg}
			k := s3.Keep(e)
			if k {
				kept++
			}
			if k != s2.Keep(e) {
				diff++
			}
		}
	}
	frac := float64(kept) / 10000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("kept fraction %.3f at rate 0.5, want ~0.5", frac)
	}
	if diff == 0 {
		t.Error("two seeds agreed on every event; sampling is not seed-dependent")
	}
}

func TestRingWithSampler(t *testing.T) {
	r := NewRing(10000, NewHashSampler(7, 0.25, nil))
	total := 0
	for peer := 0; peer < 100; peer++ {
		for seg := 0; seg < 40; seg++ {
			r.Emit(Event{Cat: CatFlow, Name: EvFlowActivate, Peer: peer, Seg: seg})
			total++
		}
	}
	c := r.Counts()
	if c.Sampled+c.Rejected != int64(total) {
		t.Fatalf("sampled %d + rejected %d != emitted %d", c.Sampled, c.Rejected, total)
	}
	if c.Dropped != 0 {
		t.Errorf("dropped %d with spare capacity, want 0", c.Dropped)
	}
	frac := float64(c.Sampled) / float64(total)
	if frac < 0.18 || frac > 0.32 {
		t.Errorf("admitted fraction %.3f at rate 0.25, want ~0.25", frac)
	}
	if r.Len() != int(c.Sampled) {
		t.Errorf("Len = %d, want the %d admitted", r.Len(), c.Sampled)
	}
}

// Emit runs on any goroutine: concurrent emitters lose no count.
func TestRingConcurrentEmit(t *testing.T) {
	r := NewRing(100, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Emit(Event{Cat: CatPlayer, Name: EvStallBegin, Peer: i, Seg: -1})
			}
		}()
	}
	wg.Wait()
	if got, want := r.Counts(), (RingCounts{Sampled: 200, Dropped: 100}); got != want {
		t.Errorf("Counts = %+v, want %+v", got, want)
	}
	if got := r.Len(); got != 100 {
		t.Errorf("Len = %d, want 100", got)
	}
}
