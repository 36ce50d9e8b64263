// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering among
// simultaneous events, and a seeded RNG. It is the substrate under the
// network emulator that replaces the paper's GENI testbed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all event handlers run on the caller's goroutine, which is
// what makes runs deterministic.
type Engine struct {
	now    time.Duration
	events eventHeap
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

// Timer is a handle to a scheduled event.
type Timer struct {
	ev *event
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. A nil timer is safe to cancel.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil {
		t.ev.cancelled = true
	}
}

// Cancelled reports whether the timer was cancelled before firing.
func (t *Timer) Cancelled() bool { return t != nil && t.ev != nil && t.ev.cancelled }

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
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return &Timer{ev: ev}
}

// Step fires the next event, advancing the clock. It returns false when the
// queue is empty.
//
//lint:hotpath the simulator's inner loop; the benchmarks assert 0 allocs/op
func (e *Engine) Step() bool {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
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
	for e.events.Len() > 0 {
		ev := e.events[0]
		if ev.cancelled {
			heap.Pop(&e.events)
			continue
		}
		if ev.at > deadline {
			break
		}
		heap.Pop(&e.events)
		e.now = ev.at
		ev.fn()
		if e.onFire != nil {
			e.onFire(ev.at)
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
}

type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	index     int
}

// eventHeap orders by (time, insertion sequence) for deterministic FIFO
// behaviour among simultaneous events.
type eventHeap []*event

//lint:hotpath heap op on every schedule/fire
func (h eventHeap) Len() int { return len(h) }

//lint:hotpath heap op on every schedule/fire
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//lint:hotpath heap op on every schedule/fire
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

//lint:hotpath heap op on every schedule/fire; *event values are pointer-shaped, so boxing into any is free
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	//lint:ignore allocfree amortized: the heap's backing array grows to the pending-event high-water mark once
	*h = append(*h, ev)
}

//lint:hotpath heap op on every schedule/fire; *event values are pointer-shaped, so boxing into any is free
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
