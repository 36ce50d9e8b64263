// Package peer implements the real-TCP swarm node: the seeder/leecher
// application the paper built in Java, here as a Go library. A node serves
// segments it holds over the wire protocol, downloads missing segments with
// a pluggable pooling policy (internal/core), verifies them against the
// published manifest, and feeds a playback model (internal/player) so real
// deployments report the same metrics as the emulation.
package peer

import (
	"fmt"
	"sync"
)

// SegmentStore is the storage abstraction a Node serves from and downloads
// into. Store is its one implementation; the interface lets tests wrap it
// to intercept a call. Implementations must be safe for concurrent use.
//
// Ownership: Put takes blob over — the caller never writes to it again, so
// a store may keep it rather than copy it (Store does; the node's download
// buffer becomes the stored segment). NewFullStore takes a seeder's blobs
// over by the same rule. Block may return a view of stored bytes rather
// than a copy (Store does), so callers only read it.
type SegmentStore interface {
	// Segments returns the store capacity.
	Segments() int
	// Count returns how many segments are present.
	Count() int
	// Complete reports whether every segment is present.
	Complete() bool
	// Bitfield snapshots the have-flags.
	Bitfield() []bool
	// Put stores segment i (idempotent; first copy wins), taking blob over.
	Put(i int, blob []byte) error
	// Block returns length bytes of segment i starting at off, read-only.
	Block(i, off, length int) ([]byte, error)
}

var _ SegmentStore = (*Store)(nil)

// Store holds encoded segment containers in memory, keyed by segment index.
// It is safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	blobs [][]byte
	count int
}

// NewStore returns an empty store for n segments.
func NewStore(n int) (*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("peer: store needs at least one segment, got %d", n)
	}
	return &Store{blobs: make([][]byte, n)}, nil
}

// NewFullStore returns a store pre-populated with every segment (a
// seeder). Like Put, it keeps each blob itself, not a copy: the caller
// must not write to blobs[i] again.
func NewFullStore(blobs [][]byte) (*Store, error) {
	s, err := NewStore(len(blobs))
	if err != nil {
		return nil, err
	}
	for i, b := range blobs {
		if len(b) == 0 {
			return nil, fmt.Errorf("peer: seed segment %d is empty", i)
		}
		s.blobs[i] = b
	}
	s.count = len(blobs)
	return s, nil
}

// Segments returns the store capacity.
func (s *Store) Segments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// Count returns how many segments are present.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Complete reports whether every segment is present.
func (s *Store) Complete() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count == len(s.blobs)
}

// Bitfield snapshots the have-flags.
func (s *Store) Bitfield() []bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]bool, len(s.blobs))
	for i, b := range s.blobs {
		out[i] = b != nil
	}
	return out
}

// Put stores segment i. Duplicate puts are ignored; the first copy wins.
// The store keeps blob itself, not a copy: the caller must not write to it
// again.
func (s *Store) Put(i int, blob []byte) error {
	if len(blob) == 0 {
		return fmt.Errorf("peer: empty segment %d", i)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.blobs) {
		return fmt.Errorf("peer: segment index %d out of range [0, %d)", i, len(s.blobs))
	}
	if s.blobs[i] != nil {
		return nil
	}
	s.blobs[i] = blob
	s.count++
	return nil
}

// Block returns length bytes of segment i starting at off: a read-only view
// of the stored blob, capped so an append cannot reach past it. Stored
// blobs never change, so the view stays valid.
func (s *Store) Block(i int, off, length int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= len(s.blobs) || s.blobs[i] == nil {
		return nil, fmt.Errorf("peer: segment %d not available", i)
	}
	b := s.blobs[i]
	if off < 0 || length <= 0 || off+length > len(b) {
		return nil, fmt.Errorf("peer: block [%d, %d+%d) outside segment of %d bytes", off, off, length, len(b))
	}
	return b[off : off+length : off+length], nil
}
