package fault

import (
	"testing"
	"time"
)

// planFromBytes decodes six bytes per event — kind, node, at, dur (both
// in 100 ms steps), one parameter byte and one adversary/hazard byte —
// all but the last signed, so the fuzzer reaches unknown kinds, negative
// times and nodes, non-positive durations and out-of-range parameters.
func planFromBytes(data []byte) Plan {
	const step = 100 * time.Millisecond
	var p Plan
	for ; len(data) >= 6; data = data[6:] {
		prm := float64(int8(data[4]))
		p.Events = append(p.Events, Event{
			Kind:        Kind(int8(data[0])),
			Node:        int(int8(data[1])),
			At:          time.Duration(int8(data[2])) * step,
			Dur:         time.Duration(int8(data[3])) * step,
			BytesPerSec: int64(prm) << 10,
			Percent:     prm,
			Adversary:   AdversaryKind(data[5] % 6),
			Loss:        GEModel{PGood: prm / 200, PBad: prm / 100, P13: prm, P31: float64(data[5])},
		})
	}
	return p
}

// FuzzPlan checks that Validate never panics, and that every plan it
// accepts compiles to well-formed edges: in time order, beginning and
// end alternating per (kind, node), and every window closed.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10, 20, 0, 0}) // crash node 1 for [1s, 3s)
	// Two crashes of node 1 that overlap.
	f.Add([]byte{
		0, 1, 10, 20, 0, 0,
		0, 1, 20, 20, 0, 0})
	// One of every kind, each on its own node.
	f.Add([]byte{
		0, 0, 0, 5, 0, 0,
		1, 1, 0, 5, 0, 0,
		2, 2, 3, 0, 64, 0,
		3, 0, 1, 9, 0, 0,
		4, 3, 0, 50, 30, 1,
		5, 4, 2, 8, 50, 0,
		6, 5, 2, 8, 50, 2,
		7, 6, 0, 100, 0, 0})
	f.Add([]byte{9, 1, 0, 5, 0, 0})    // unknown kind
	f.Add([]byte{0, 1, 0xF6, 5, 0, 0}) // negative time
	f.Add([]byte{0, 1, 0, 0, 0, 0})    // zero-Dur window

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxNode = 7
		p := planFromBytes(data)
		if p.Validate(maxNode) != nil {
			return
		}
		type key struct {
			kind Kind
			node int
		}
		open := map[key]bool{}
		var last time.Duration
		for i, e := range p.Edges() {
			if e.At < last {
				t.Fatalf("edge %d (%s) at %v fires before its predecessor at %v", i, e.Name(), e.At, last)
			}
			last = e.At
			k := key{e.Kind, e.Node}
			if e.Kind == KindTrackerDown {
				k.node = 0
			}
			if e.Kind == KindLinkRate {
				if e.End {
					t.Fatalf("edge %d: a rate step has an end", i)
				}
				continue
			}
			if open[k] == !e.End {
				t.Fatalf("edge %d (%s node %d at %v): beginning and end do not alternate", i, e.Name(), e.Node, e.At)
			}
			open[k] = !e.End
		}
		for k, isOpen := range open {
			if isOpen {
				t.Fatalf("%s window on node %d never ends", k.kind, k.node)
			}
		}
	})
}
