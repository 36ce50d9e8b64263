// Zero-allocation tests for the //lint:hotpath contract on the event
// loop: scheduling allocates exactly once (the Timer, which is the caller's
// handle and what the queue's entry points at), and the queue operations,
// Reschedule and Step themselves must not. Excluded under -race because
// race instrumentation inserts allocations the production build does not
// have.

//go:build !race

package sim

import (
	"testing"
	"time"
)

// stagedEntries returns n prebuilt events at distinct instants, so the
// tests below can queue them through push without the allocation At makes.
func stagedEntries(n int) []entry {
	es := make([]entry, n)
	for i := range es {
		es[i] = entry{at: time.Duration(i), seq: uint64(i), t: &Timer{fn: nop, idx: -1}}
	}
	return es
}

// TestZeroAllocStep pins the fire path: with events already built,
// queueing them and draining them through Step allocates nothing.
func TestZeroAllocStep(t *testing.T) {
	e := New(1)
	es := stagedEntries(256)
	allocs := testing.AllocsPerRun(50, func() {
		for _, x := range es {
			e.push(x)
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Errorf("queue ops + Step allocated %.1f times per drain, want 0", allocs)
	}
}

// TestAtAllocatesOnce pins the cost of scheduling: the Timer and nothing
// else. Each run fires what it scheduled, so the queue's backing array
// never grows inside the measurement.
func TestAtAllocatesOnce(t *testing.T) {
	e := New(1)
	allocs := testing.AllocsPerRun(200, func() {
		e.At(e.Now()+time.Millisecond, nop)
		e.Step()
	})
	if allocs != 1 {
		t.Errorf("At + Step allocated %.1f times, want exactly 1 (the Timer)", allocs)
	}
}

// rearmTimers schedules n timers on e and returns them with an op that
// re-arms every one twice — once while it is queued, once after Cancel —
// and drains the queue: each of Reschedule's three paths, and Step.
func rearmTimers(e *Engine, n int) func() {
	tms := make([]*Timer, n)
	for i := range tms {
		tms[i] = e.Schedule(time.Duration(i), nop)
	}
	return func() {
		for i, tm := range tms {
			e.Reschedule(tm, time.Duration(n-i)*time.Millisecond)
		}
		for i, tm := range tms {
			if i%2 == 0 {
				tm.Cancel()
			}
			e.Reschedule(tm, time.Duration(i%7)*time.Millisecond)
		}
		for e.Step() {
		}
	}
}

// TestZeroAllocReschedule pins re-arming: moving a queued timer and
// re-queueing a fired or cancelled one allocate nothing.
func TestZeroAllocReschedule(t *testing.T) {
	e := New(1)
	op := rearmTimers(e, 256)
	op() // grow the queue's backing array
	if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
		t.Errorf("Reschedule + Step allocated %.1f times per drain, want 0", allocs)
	}
}

// BenchmarkHotpathSimStep is the -benchmem gate for the simulator's
// inner loop: `make bench-alloc` fails if it reports nonzero allocs/op.
// Each op queues and drains 256 events.
func BenchmarkHotpathSimStep(b *testing.B) {
	e := New(1)
	es := stagedEntries(256)
	// Warm-up drain grows the queue's backing array outside the measurement.
	for _, x := range es {
		e.push(x)
	}
	for e.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range es {
			e.push(x)
		}
		for e.Step() {
		}
	}
}

// BenchmarkHotpathSimReschedule is the -benchmem gate for re-arming: each
// op moves 256 queued timers, re-queues 128 cancelled and 128 fired ones,
// and drains them.
func BenchmarkHotpathSimReschedule(b *testing.B) {
	e := New(1)
	op := rearmTimers(e, 256)
	op() // grow the queue's backing array outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
