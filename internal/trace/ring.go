package trace

import (
	"sync"
	"sync/atomic"
)

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
// equals the number of Emit calls; Dropped counts admitted events later
// evicted by capacity.
type RingCounts struct {
	Sampled  int64 `json:"sampled"`
	Rejected int64 `json:"rejected"`
	Dropped  int64 `json:"dropped"`
}

// Ring is a bounded in-memory Sink: a fixed-capacity circular buffer
// holding the most recent admitted events, with an optional HashSampler
// in front. It replaces the unbounded Buffer for swarm-scale runs —
// memory is fixed at capacity events no matter how long the run is, and
// the explicit sampled/rejected/dropped counters make the bound honest:
// nothing disappears without being counted.
type Ring struct {
	mu      sync.Mutex // guards buf, start, size
	buf     []Event
	start   int
	size    int
	sampler *HashSampler
	// counters are atomics so Counts() needs no lock ordering with Emit.
	sampled  int64
	rejected int64
	dropped  int64
}

// NewRing returns a Ring holding at most capacity admitted events
// (minimum 1). sampler may be nil to admit everything.
func NewRing(capacity int, sampler *HashSampler) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity), sampler: sampler}
}

// Emit runs the sampler and, on admission, appends ev, evicting the
// oldest event when full.
func (r *Ring) Emit(ev Event) {
	if !r.sampler.Keep(ev) {
		atomic.AddInt64(&r.rejected, 1)
		return
	}
	atomic.AddInt64(&r.sampled, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size == len(r.buf) {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		atomic.AddInt64(&r.dropped, 1)
		return
	}
	r.buf[(r.start+r.size)%len(r.buf)] = ev
	r.size++
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Counts returns the admission accounting.
func (r *Ring) Counts() RingCounts {
	return RingCounts{
		Sampled:  atomic.LoadInt64(&r.sampled),
		Rejected: atomic.LoadInt64(&r.rejected),
		Dropped:  atomic.LoadInt64(&r.dropped),
	}
}
