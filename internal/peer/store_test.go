package peer

import (
	"bytes"
	"testing"
)

func TestStoreLifecycle(t *testing.T) {
	s, err := NewStore(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 3 || s.Count() != 0 || s.Complete() {
		t.Error("fresh store state wrong")
	}
	if err := s.Put(1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if !s.Bitfield()[1] || s.Count() != 1 {
		t.Error("Put not reflected")
	}
	// Duplicate put keeps the first copy.
	if err := s.Put(1, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	b, err := s.Block(1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, []byte("abc")) {
		t.Errorf("Block = %q, want abc", b)
	}
	bf := s.Bitfield()
	if bf[0] || !bf[1] || bf[2] {
		t.Errorf("Bitfield = %v", bf)
	}
	if err := s.Put(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if !s.Complete() {
		t.Error("store should be complete")
	}
}

func TestStoreErrors(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Error("zero-size store: want error")
	}
	if _, err := NewFullStore([][]byte{{1}, nil}); err == nil {
		t.Error("empty seed blob: want error")
	}
	s, err := NewStore(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(0, nil); err == nil {
		t.Error("empty blob: want error")
	}
	if err := s.Put(5, []byte("x")); err == nil {
		t.Error("out-of-range put: want error")
	}
	if _, err := s.Block(0, 0, 1); err == nil {
		t.Error("block of absent segment: want error")
	}
	if err := s.Put(0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{{-1, 2}, {0, 0}, {2, 4}, {0, 5}} {
		if _, err := s.Block(0, tc[0], tc[1]); err == nil {
			t.Errorf("Block(%d, %d): want error", tc[0], tc[1])
		}
	}
}

func TestFullStoreCopiesInput(t *testing.T) {
	src := [][]byte{[]byte("hello")}
	s, err := NewFullStore(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0][0] = 'X'
	b, err := s.Block(0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello" {
		t.Errorf("store aliased caller buffer: %q", b)
	}
}
