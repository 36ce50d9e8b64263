// Package hot exercises every allocfree check inside //lint:hotpath
// functions, plus the negative space: unmarked functions may allocate
// freely, and pointer-shaped values box for free.
package hot

import (
	"errors"
	"fmt"

	"p2psplice/internal/dep"
)

var sink any
var sinkFn func() int
var sinkErr error

type point struct{ x, y int }

//lint:hotpath fixture: every line below is an allocation
func Bad(buf []byte, v int64, s string) int {
	_ = fmt.Sprint(v)       // want "fmt.Sprint allocates in a //lint:hotpath function"
	sinkErr = errors.New(s) // want "errors.New allocates in a //lint:hotpath function"
	b := make([]byte, 8)    // want "make allocates in a //lint:hotpath function"
	buf = append(buf, b...) // want "append without a same-function capacity hint"
	sink = v                // want "assignment boxes int64 into an interface"
	_ = s + "!"             // want "string concatenation allocates"
	_ = []byte(s)           // want "conversion allocates"
	n := v
	sinkFn = func() int { return int(n) } // want "capturing function literal allocates a closure context"
	_ = dep.Slow(1)                       // want "calls dep.Slow, which is not marked //lint:hotpath"
	go dep.Fast(1)                        // want "go statement allocates a goroutine"
	p := &point{}                         // want "&composite literal escapes to the heap"
	_ = []int{1, 2}                       // want "slice/map composite literal allocates"
	return p.x
}

//lint:hotpath fixture: none of this allocates
func Good(dst []byte, v int64) []byte {
	if cap(dst) < 8 {
		return nil
	}
	dst = dst[:8]
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * uint(i)))
	}
	_ = dep.Fast(int(v)) // marked callee: the contract holds transitively
	return dst
}

//lint:hotpath fixture: a 3-arg make hints capacity, so appends to it pass
func Hinted(vals []byte) []byte {
	out := make([]byte, 0, 64) // want "make allocates in a //lint:hotpath function"
	out = append(out, vals...) // hinted target: no append finding
	return out
}

//lint:hotpath fixture: the marker on a generic type's method covers its instantiations
func Generic(b *dep.Box[int]) int {
	_ = b.Len() // want "calls dep.\(\*Box\).Len, which is not marked //lint:hotpath"
	return b.Get(1)
}

//lint:hotpath fixture: a type-parameter parameter is instantiated, an any parameter boxes
func TypeParam(keys []uint64) uint64 {
	_ = dep.Any(keys) // want "argument boxes \[\]uint64 into an interface"
	return dep.Max(keys)
}

//lint:hotpath fixture: pointer-shaped values fit the interface word
func PtrBox(p *point) { sink = p }

// NotHot is unmarked: allocating freely here must produce no findings.
func NotHot(v int64) string { return fmt.Sprintf("%d", v) }
