package trace

import (
	"reflect"
	"testing"
	"time"
)

func TestRingBoundsAndEviction(t *testing.T) {
	r := NewRing(3, nil)
	for i := 0; i < 5; i++ {
		r.Emit(Event{At: time.Duration(i), Peer: i, Seg: -1, Cat: CatPool, Name: EvPoolFill})
	}
	evs := r.Events()
	if len(evs) != 3 || r.Len() != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	var peers []int
	for _, ev := range evs {
		peers = append(peers, ev.Peer)
	}
	if !reflect.DeepEqual(peers, []int{2, 3, 4}) {
		t.Errorf("retained peers %v, want oldest-first [2 3 4]", peers)
	}
	counts := r.Counts()
	if counts.Sampled != 5 || counts.Rejected != 0 || counts.Dropped != 2 {
		t.Errorf("counts = %+v, want sampled=5 rejected=0 dropped=2", counts)
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
		t.Errorf("ring holds %d events, want %d admitted", r.Len(), c.Sampled)
	}
}

// Events returns a copy of the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.size)
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}
