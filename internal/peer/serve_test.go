package peer

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"p2psplice/internal/wire"
)

// readPieces reads the next copies of every block of segment idx from p,
// skipping HAVE and BITFIELD frames. It fails on a CHOKE, on a piece of
// another segment and on one that differs from blob, and returns the
// payload bytes read.
func (p *probeConn) readPieces(t *testing.T, idx int, blob []byte, copies int) int {
	t.Helper()
	blocks := wire.BlockCount(int64(len(blob)), wire.DefaultBlockLen)
	got := make(map[uint32]int)
	payload := 0
	for i := 0; i < blocks*copies; i++ {
		m := p.readUntil(t, wire.MsgPiece, wire.MsgChoke)
		if m.Type == wire.MsgChoke {
			t.Fatalf("CHOKE after %d of %d pieces of segment %d", i, blocks*copies, idx)
		}
		end := int(m.Offset) + len(m.Data)
		if int(m.Index) != idx || end > len(blob) || !bytes.Equal(m.Data, blob[m.Offset:end]) {
			t.Fatalf("piece (%d, %d) is not block of segment %d as seeded", m.Index, m.Offset, idx)
		}
		got[m.Offset]++
		payload += len(m.Data)
	}
	if len(got) != blocks {
		t.Errorf("segment %d: %d distinct blocks arrived, want %d", idx, len(got), blocks)
	}
	for off, n := range got {
		if n != copies {
			t.Errorf("segment %d: block at offset %d arrived %d times, want %d", idx, off, n, copies)
		}
	}
	return payload
}

// TestServeBurstKeepsSemantics drives the seeder's serve path from a
// probe: a whole segment's REQUEST burst, answered while the seeder
// broadcasts HAVEs on the same conn, delivers every block exactly once —
// twice under the duplication fault — with the seeded bytes; a CHOKE
// written after queued pieces arrives after them; and UploadedBytes is
// the payload the probe read.
func TestServeBurstKeepsSemantics(t *testing.T) {
	// 20 s segments of about 40 blocks: a burst fills the queue more
	// than once.
	m, blobs := testSwarmData(t, 40*time.Second, 20*time.Second)
	if n := wire.BlockCount(int64(len(blobs[0])), wire.DefaultBlockLen); n <= wire.MaxQueued {
		t.Fatalf("segment 0 has %d blocks, want more than the %d a queue holds", n, wire.MaxQueued)
	}
	for _, dup := range []bool{false, true} {
		name, copies := "once", 1
		if dup {
			name, copies = "duplicated", 2
		}
		t.Run(name, func(t *testing.T) {
			trk := newTracker(t)
			seeder, err := Seed(trk, m, blobs, fastConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer seeder.Close()
			seeder.SetServeDuplication(dup)

			const tag = "PROBE-SERVE-PROBE-SE"
			p := dialProbe(t, seeder.Addr(), seeder.InfoHash(), tag)
			p.readUntil(t, wire.MsgBitfield) // the conn is registered
			stop := make(chan struct{})
			var haves sync.WaitGroup
			haves.Add(1)
			go func() {
				defer haves.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						seeder.broadcastHave(i % len(blobs))
					}
				}
			}()

			// Phase 1: the burst, through the seeder's read loop.
			if err := wire.NewWriter(p.c).WriteRequests(0, len(blobs[0]), wire.DefaultBlockLen); err != nil {
				t.Fatal(err)
			}
			read := p.readPieces(t, 0, blobs[0], copies)

			// Phase 2: the serve path queues segment 1 on the probe's conn
			// while its read loop waits, then a CHOKE goes out: every
			// queued piece must precede it, and no piece of the burst may
			// follow the burst.
			seeder.mu.Lock()
			var id wire.PeerID
			copy(id[:], tag)
			c := seeder.conns[id]
			seeder.mu.Unlock()
			served := make(chan error, 1)
			go func() {
				for off := 0; off < len(blobs[1]); off += wire.DefaultBlockLen {
					req := wire.Message{Type: wire.MsgRequest, Index: 1, Offset: uint32(off), Length: uint32(min(wire.DefaultBlockLen, len(blobs[1])-off))}
					if err := c.serveBlock(&req); err != nil {
						served <- err
						return
					}
				}
				served <- c.send(&wire.Message{Type: wire.MsgChoke})
			}()
			read += p.readPieces(t, 1, blobs[1], copies)
			if m := p.readUntil(t, wire.MsgPiece, wire.MsgChoke); m.Type != wire.MsgChoke {
				t.Fatalf("piece (%d, %d) after the last one queued, want CHOKE", m.Index, m.Offset)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
			close(stop)
			haves.Wait()

			if up := seeder.Stats().UploadedBytes; up != int64(read) {
				t.Errorf("UploadedBytes = %d, want the %d payload bytes the probe read", up, read)
			}
			if want := copies * (len(blobs[0]) + len(blobs[1])); read != want {
				t.Errorf("probe read %d payload bytes, want %d", read, want)
			}
		})
	}
}
