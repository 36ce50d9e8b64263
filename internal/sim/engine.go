// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering among
// simultaneous events, and a seeded RNG. It is the substrate under the
// network emulator that replaces the paper's GENI testbed.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all event handlers run on the caller's goroutine, which is
// what makes runs deterministic.
type Engine struct {
	now    time.Duration
	events []entry // 4-ary min-heap on (at, seq) of the queued timers
	seq    uint64
	rng    *rand.Rand
	onFire func(at time.Duration)
}

// entry is one queued event. Its key sits inline, so ordering the heap
// never dereferences a Timer.
type entry struct {
	at  time.Duration
	seq uint64
	t   *Timer
}

// New returns an engine whose RNG is seeded with seed. The virtual clock
// starts at zero.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
//
//lint:hotpath read by every layer's per-event code
func (e *Engine) Now() time.Duration { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// SetFireObserver registers fn to run after each event fires, with the
// virtual time of that event. The observer is a pure listener for
// instrumentation (event counting, trace heartbeats): it must not
// schedule events, draw from the RNG, or otherwise feed back into the
// simulation, so that runs are identical with and without it. Pass nil
// to remove the observer.
func (e *Engine) SetFireObserver(fn func(at time.Duration)) { e.onFire = fn }

// Pending returns the number of scheduled (uncancelled) events.
func (e *Engine) Pending() int { return len(e.events) }

// Timer is a scheduled event and the caller's handle to it.
type Timer struct {
	eng       *Engine
	fn        func()
	idx       int // slot in eng.events; -1 when not queued
	cancelled bool
}

// Cancel prevents the event from firing and takes it off the queue.
// Cancelling an already-fired or already-cancelled timer is a no-op. A nil
// timer is safe to cancel.
//
//lint:hotpath stops a flow's timers at every completion and cancellation
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
		if t.idx >= 0 {
			t.eng.remove(t.idx)
		}
	}
}

// Cancelled reports whether Cancel was called since the timer was last
// scheduled.
func (t *Timer) Cancelled() bool { return t != nil && t.cancelled }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fires at the current instant, after already-queued events for
// that instant); a delay past the end of virtual time fires at its end.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Timer {
	return e.At(e.after(delay), fn)
}

// At runs fn at absolute virtual time t. Times in the past fire at the
// current instant.
func (e *Engine) At(t time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	tm := &Timer{eng: e, fn: fn}
	e.push(entry{at: max(t, e.now), seq: e.seq, t: tm})
	e.seq++
	return tm
}

// Reschedule moves t to fire after delay, or queues it again if it has
// fired or was cancelled, taking the seq a Cancel and Schedule would take.
// t must have come from this engine.
//
//lint:hotpath re-arms a flow's completion on every rate change
func (e *Engine) Reschedule(t *Timer, delay time.Duration) {
	t.cancelled = false
	x := entry{at: e.after(delay), seq: e.seq, t: t}
	e.seq++
	if t.idx < 0 {
		e.push(x)
	} else {
		e.sift(t.idx, x)
	}
}

// after is the instant delay from now, clamped to [now, end of time].
//
//lint:hotpath computed on every schedule
func (e *Engine) after(delay time.Duration) time.Duration {
	if delay > math.MaxInt64-e.now {
		return math.MaxInt64
	}
	return e.now + max(delay, 0)
}

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty.
//
//lint:hotpath the simulator's inner loop; the benchmarks assert 0 allocs/op
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events[0]
	e.remove(0)
	e.now = ev.at
	ev.t.fn()
	if e.onFire != nil {
		e.onFire(ev.at)
	}
	return true
}

// Run fires events until the queue is empty or the event budget is
// exhausted. It returns an error on budget exhaustion, which almost always
// indicates a livelock (events rescheduling each other forever).
func (e *Engine) Run(maxEvents int) error {
	for i := 0; maxEvents <= 0 || i < maxEvents; i++ {
		if !e.Step() {
			return nil
		}
	}
	return fmt.Errorf("sim: event budget %d exhausted at t=%v", maxEvents, e.now)
}

// RunUntil fires events with virtual time <= deadline, then sets the clock
// to deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// before is the queue's order: (time, insertion sequence), so simultaneous
// events fire FIFO. Sequence numbers are unique, so the order is total and
// the pop order does not depend on how the heap happens to be laid out.
//
//lint:hotpath compared on every heap move
func (x *entry) before(y *entry) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// push queues x at a new leaf.
//
//lint:hotpath heap op on every schedule
func (e *Engine) push(x entry) {
	//lint:ignore allocfree amortized: the heap's backing array grows to the pending-event high-water mark once
	e.events = append(e.events, entry{})
	e.sift(len(e.events)-1, x)
}

// remove takes the entry in slot i off the queue; the last leaf fills
// the slot.
//
//lint:hotpath heap op on every fire and cancel
func (e *Engine) remove(i int) {
	h := e.events
	h[i].t.idx = -1
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	e.events = h[:n]
	if i < n {
		e.sift(i, last)
	}
}

// sift writes x into slot i after moving a hole up past every ancestor x
// precedes, or else down past every earliest child that precedes x,
// instead of swapping at every level.
//
//lint:hotpath heap op on every schedule, fire and cancel
func (e *Engine) sift(i int, x entry) {
	h := e.events
	for i > 0 && x.before(&h[(i-1)/4]) {
		p := (i - 1) / 4
		h[i] = h[p]
		h[i].t.idx = i
		i = p
	}
	for c := 4*i + 1; c < len(h); c = 4*i + 1 {
		m := c
		for j := c + 1; j < min(c+4, len(h)); j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		h[i].t.idx = i
		i = m
	}
	h[i] = x
	x.t.idx = i
}
