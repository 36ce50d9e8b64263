// Package state declares the fields under atomic discipline. One mix
// happens inside this package; the other two cross the package boundary
// in both directions (atomic here / plain in user, and plain here /
// atomic in user), so only a module-wide verdict sees them.
package state

import "sync/atomic"

type Counters struct {
	hits int64
	cold int64
}

func (c *Counters) Hit() { atomic.AddInt64(&c.hits, 1) }

// Snapshot mixes a plain read into an atomically-updated field.
func (c *Counters) Snapshot() int64 {
	return c.hits // want "field hits is accessed via sync/atomic .* but non-atomically here"
}

// Cold is only ever accessed plainly: no discipline, no finding.
func (c *Counters) Cold() int64 { return c.cold }

// Gauge's field goes atomic here and plain in package user.
type Gauge struct {
	Val int64
}

func (g *Gauge) Bump() { atomic.AddInt64(&g.Val, 1) }

// Flags is the reverse direction: the plain access is here, the atomic
// access lives in package user, which imports this one.
type Flags struct {
	Bits uint32
}

func (f *Flags) Plain() uint32 {
	return f.Bits // want "field Bits is accessed via sync/atomic .* but non-atomically here"
}

// Hist proves the benign-use exemptions: len of an array field and an
// index-only range never observe element values.
type Hist struct {
	counts [4]int64
}

func (h *Hist) Inc(i int) { atomic.AddInt64(&h.counts[i], 1) }

func (h *Hist) Len() int { return len(h.counts) }

func (h *Hist) Sum() int64 {
	var s int64
	for i := range h.counts {
		s += atomic.LoadInt64(&h.counts[i])
	}
	return s
}
