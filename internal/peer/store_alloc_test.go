// Excluded under -race, like internal/wire's alloc tests: race
// instrumentation inserts allocations the production build does not have.

//go:build !race

package peer

import (
	"bytes"
	"testing"

	"p2psplice/internal/wire"
)

// TestStoreBlockZeroAlloc pins Store.Block at zero allocations: a served
// block is a read-only view of the stored blob, not a copy.
func TestStoreBlockZeroAlloc(t *testing.T) {
	s, err := NewStore(1)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte{0xC3}, 4*wire.DefaultBlockLen)
	if err := s.Put(0, blob); err != nil {
		t.Fatal(err)
	}
	var b []byte
	allocs := testing.AllocsPerRun(200, func() {
		if b, err = s.Block(0, wire.DefaultBlockLen, wire.DefaultBlockLen); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Store.Block allocated %.1f times per block, want 0", allocs)
	}
	if &b[0] != &blob[wire.DefaultBlockLen] || cap(b) != wire.DefaultBlockLen {
		t.Error("Block is not a capped view of the stored blob")
	}
}
