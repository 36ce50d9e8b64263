// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering among
// simultaneous events, and a seeded RNG. It is the substrate under the
// network emulator that replaces the paper's GENI testbed.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all event handlers run on the caller's goroutine, which is
// what makes runs deterministic.
type Engine struct {
	now    time.Duration
	events []*Timer // binary min-heap on (at, seq)
	seq    uint64
	rng    *rand.Rand
	onFire func(at time.Duration)
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
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// Timer is a scheduled event and the caller's handle to it.
type Timer struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. A nil timer is safe to cancel. A
// cancelled event stays queued and is dropped when it reaches the front.
func (t *Timer) Cancel() {
	if t != nil {
		t.cancelled = true
	}
}

// Cancelled reports whether the timer was cancelled before firing.
func (t *Timer) Cancelled() bool { return t != nil && t.cancelled }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fires at the current instant, after already-queued events for
// that instant).
func (e *Engine) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past fire at the
// current instant.
func (e *Engine) At(t time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if t < e.now {
		t = e.now
	}
	tm := &Timer{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.push(tm)
	return tm
}

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty.
//
//lint:hotpath the simulator's inner loop; the benchmarks assert 0 allocs/op
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		ev.fn()
		if e.onFire != nil {
			e.onFire(ev.at)
		}
		return true
	}
	return false
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
	for len(e.events) > 0 {
		if ev := e.events[0]; ev.cancelled {
			e.pop()
		} else if ev.at > deadline {
			break
		} else {
			e.Step()
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// before is the queue's order: (time, insertion sequence), so simultaneous
// events fire FIFO. Sequence numbers are unique, so the order is total and
// the pop order does not depend on how the heap happens to be laid out.
//
//lint:hotpath compared on every schedule/fire
func (t *Timer) before(u *Timer) bool {
	return t.at < u.at || (t.at == u.at && t.seq < u.seq)
}

// push queues t. It sifts a hole up from the new leaf and writes t once,
// instead of swapping at every level.
//
//lint:hotpath heap op on every schedule
func (e *Engine) push(t *Timer) {
	//lint:ignore allocfree amortized: the heap's backing array grows to the pending-event high-water mark once
	e.events = append(e.events, t)
	h := e.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = t
}

// pop removes and returns the earliest queued event; the queue must not
// be empty. The last leaf sifts down from the root through a moving hole.
//
//lint:hotpath heap op on every fire
func (e *Engine) pop() *Timer {
	h := e.events
	top, n := h[0], len(h)-1
	t := h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(t) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = t
	}
	return top
}
