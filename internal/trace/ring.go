package trace

import "sync/atomic"

// HashSampler decides event admission as a pure function of its seed and
// the event's identity (category, name, peer, segment) — never an
// engine RNG, matching the pure-hash idiom the fault layer established
// (fault.CorruptDraw, backoff jitter): attaching or detaching a sampler
// perturbs no other random draw, so sampled tracing stays provably
// inert. The same seed and event always produce the same verdict, on
// any run, worker count, or shard layout.
type HashSampler struct {
	seed uint64
	// rate is the default keep probability in [0,1].
	rate float64
	// perCat overrides the rate for specific categories.
	perCat map[string]float64
}

// NewHashSampler returns a sampler keeping ~rate of events. perCat maps
// event categories to override rates (e.g. keep every CatPlayer event
// but 1% of CatFlow churn); it may be nil.
func NewHashSampler(seed int64, rate float64, perCat map[string]float64) *HashSampler {
	return &HashSampler{seed: uint64(seed), rate: rate, perCat: perCat}
}

// fnv1a64 hashes s without allocating.
//
//lint:hotpath runs per sampled event
func fnv1a64(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Keep reports whether ev is admitted. Pure: hash(seed × category ×
// key) against the category's rate.
//
//lint:hotpath runs on every emitted event when sampling is attached
func (s *HashSampler) Keep(ev Event) bool {
	if s == nil {
		return true
	}
	rate := s.rate
	if r, ok := s.perCat[ev.Cat]; ok {
		rate = r
	}
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := fnv1a64(14695981039346656037, ev.Cat)
	h = fnv1a64(h, ev.Name)
	h = splitmixTrace(s.seed ^ h ^
		uint64(ev.Peer)*0x9e3779b97f4a7c15 ^
		uint64(ev.Seg)*0xbf58476d1ce4e5b9)
	// u in [0,1) from the top 53 bits, as fault's jitter draw.
	u := float64(h>>11) / (1 << 53)
	return u < rate
}

// splitmixTrace is the SplitMix64 finalizer (same construction as the
// fault package's pure draws): avalanches every input bit so nearby
// (seed, peer, seg) tuples decorrelate.
//
//lint:hotpath runs per sampled event
func splitmixTrace(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RingCounts reports a Ring's admission accounting. Sampled + Rejected
// equals the number of Emit calls; Dropped counts admitted events beyond
// the ring's capacity.
type RingCounts struct {
	Sampled  int64 `json:"sampled"`
	Rejected int64 `json:"rejected"`
	Dropped  int64 `json:"dropped"`
}

// Ring is a bounded counting Sink for swarm-scale runs: an optional
// HashSampler in front of a capacity. It keeps no events, only counts:
// its memory is fixed no matter how long the run is, and the explicit
// sampled/rejected/dropped counters make the bound honest: nothing
// disappears without being counted.
type Ring struct {
	capacity int64
	sampler  *HashSampler
	// counters are atomics: Emit runs on any goroutine and takes no lock.
	sampled  atomic.Int64
	rejected atomic.Int64
}

// NewRing returns a Ring whose capacity (minimum 1) bounds Len. sampler
// may be nil to admit everything.
func NewRing(capacity int, sampler *HashSampler) *Ring {
	return &Ring{capacity: int64(max(capacity, 1)), sampler: sampler}
}

// Emit runs the sampler and counts ev as admitted or rejected.
func (r *Ring) Emit(ev Event) {
	if r.sampler.Keep(ev) {
		r.sampled.Add(1)
	} else {
		r.rejected.Add(1)
	}
}

// Len returns the number of admitted events the capacity holds:
// min(sampled, capacity).
func (r *Ring) Len() int {
	return int(min(r.sampled.Load(), r.capacity))
}

// Counts returns the admission accounting.
func (r *Ring) Counts() RingCounts {
	sampled := r.sampled.Load()
	return RingCounts{
		Sampled:  sampled,
		Rejected: r.rejected.Load(),
		Dropped:  max(sampled-r.capacity, 0),
	}
}
