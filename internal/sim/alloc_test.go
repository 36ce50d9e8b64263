// Zero-allocation tests for the //lint:hotpath contract on the event
// loop: scheduling allocates exactly once (the Timer, which is the queued
// event and the caller's handle), and the queue operations and Step
// themselves must not. Excluded under -race because race instrumentation
// inserts allocations the production build does not have.

//go:build !race

package sim

import (
	"testing"
	"time"
)

func nop() {}

// stagedTimers returns n prebuilt events at distinct instants, so the
// tests below can queue them through push without the allocation At makes.
func stagedTimers(n int) []*Timer {
	tms := make([]*Timer, n)
	for i := range tms {
		tms[i] = &Timer{at: time.Duration(i), seq: uint64(i), fn: nop}
	}
	return tms
}

// TestZeroAllocStep pins the fire path: with events already built,
// queueing them and draining them through Step allocates nothing.
func TestZeroAllocStep(t *testing.T) {
	e := New(1)
	tms := stagedTimers(256)
	allocs := testing.AllocsPerRun(50, func() {
		for _, tm := range tms {
			e.push(tm)
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

// BenchmarkHotpathSimStep is the -benchmem gate for the simulator's
// inner loop: `make bench-alloc` fails if it reports nonzero allocs/op.
// Each op queues and drains 256 events.
func BenchmarkHotpathSimStep(b *testing.B) {
	e := New(1)
	tms := stagedTimers(256)
	// Warm-up drain grows the queue's backing array outside the measurement.
	for _, tm := range tms {
		e.push(tm)
	}
	for e.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tm := range tms {
			e.push(tm)
		}
		for e.Step() {
		}
	}
}
