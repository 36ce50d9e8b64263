// Package dep provides callees for the cross-package hotpath-contract
// check: hot code may call Fast (marked) but not Slow.
package dep

//lint:hotpath covered by the fixture's contract
func Fast(x int) int { return x + 1 }

// Slow carries no hotpath marker; hot callers must be flagged.
func Slow(x int) int { return x + 2 }

// Box is generic: hot callers reach its methods through an instantiation,
// and the marker on the declaration must still cover them.
type Box[K comparable] struct{ m map[K]int }

//lint:hotpath covered by the fixture's contract
func (b *Box[K]) Get(k K) int { return b.m[k] }

// Len carries no hotpath marker.
func (b *Box[K]) Len() int { return len(b.m) }

// Max is generic over its argument: a call instantiates it, so passing a
// slice to the type-parameter parameter boxes nothing.
//
//lint:hotpath covered by the fixture's contract
func Max[S ~[]E, E int | uint64](xs S) E {
	var m E
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Any takes an interface: a non-pointer-shaped argument is boxed.
//
//lint:hotpath covered by the fixture's contract
func Any(v any) bool { return v != nil }
