package peer

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"p2psplice/internal/shaper"
	"p2psplice/internal/wire"
)

// evilPeer accepts swarm connections, claims to hold every segment, and
// serves garbage bytes of the correct length for every request.
type evilPeer struct {
	ln         net.Listener
	infoHash   wire.InfoHash
	segments   int
	served     chan struct{} // closed once it has served at least one block
	servedOnce sync.Once     // connections are served concurrently
}

func startEvilPeer(t *testing.T, ih wire.InfoHash, segments int) *evilPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &evilPeer{ln: ln, infoHash: ih, segments: segments, served: make(chan struct{})}
	go e.run()
	t.Cleanup(func() { ln.Close() })
	return e
}

func (e *evilPeer) run() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			if _, err := wire.ReadHandshake(c); err != nil {
				return
			}
			var id wire.PeerID
			copy(id[:], "EVILEVILEVILEVILEVIL")
			if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: e.infoHash, PeerID: id}); err != nil {
				return
			}
			have := make([]bool, e.segments)
			for i := range have {
				have[i] = true
			}
			rd, wr := wire.NewReader(c), wire.NewWriter(c)
			if err := wr.WriteMsg(&wire.Message{Type: wire.MsgBitfield, Bitfield: wire.EncodeBitfield(have)}); err != nil {
				return
			}
			for {
				var m wire.Message
				if err := rd.ReadInto(&m); err != nil {
					return
				}
				if m.Type != wire.MsgRequest {
					continue
				}
				garbage := make([]byte, m.Length)
				for i := range garbage {
					garbage[i] = 0x66
				}
				if err := wr.WriteMsg(&wire.Message{
					Type: wire.MsgPiece, Index: m.Index, Offset: m.Offset, Data: garbage,
				}); err != nil {
					return
				}
				e.servedOnce.Do(func() { close(e.served) })
			}
		}(c)
	}
}

func TestViewerSurvivesMaliciousPeer(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	evil := startEvilPeer(t, seeder.InfoHash(), len(blobs))

	cfg := fastConfig()
	cfg.DownloadTimeout = 2 * time.Second
	viewer, err := Join(trk, seeder.InfoHash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	// Connect the viewer to the malicious peer directly (as if the tracker
	// had listed it).
	if err := viewer.Connect(evil.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	// The deadline is WaitComplete's alone: the viewer may well finish off
	// the seeder before it ever asks the evil peer, so waiting for a garbage
	// serve first would spend the whole budget and then race the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	complete := make(chan error, 1)
	go func() { complete <- viewer.WaitComplete(ctx) }()
	select {
	case <-evil.served:
		err = <-complete
	case err = <-complete:
		t.Log("note: the viewer completed before the evil peer served a block (scheduler preferred the seeder)")
	}
	if err != nil {
		t.Fatalf("viewer failed to complete despite honest seeder: %v", err)
	}
	// Every stored segment must verify against the manifest — garbage from
	// the malicious peer may have been received but never stored.
	for i := range blobs {
		blob, err := viewer.Store().Block(i, 0, int(m.Segments[i].Bytes))
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if err := m.VerifySegment(i, blob); err != nil {
			t.Errorf("segment %d stored corrupt: %v", i, err)
		}
	}
}

func TestInboundRejectsWrongSwarm(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	c, err := net.DialTimeout("tcp", seeder.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wrong wire.InfoHash
	wrong[0] = 0xFF
	var id wire.PeerID
	if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: wrong, PeerID: id}); err != nil {
		t.Fatal(err)
	}
	// The seeder must close the connection without handshaking back.
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadHandshake(c); err == nil {
		t.Error("seeder handshook with a wrong-swarm peer")
	}
}

func TestServeUnknownBlockDropsConn(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	c, err := net.DialTimeout("tcp", seeder.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var id wire.PeerID
	copy(id[:], "PROBEPROBEPROBEPROBE")
	if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: seeder.InfoHash(), PeerID: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHandshake(c); err != nil {
		t.Fatal(err)
	}
	// Request a block far outside any segment: the seeder must drop us.
	if err := wire.NewWriter(c).WriteMsg(&wire.Message{Type: wire.MsgRequest, Index: 9999, Offset: 0, Length: 16384}); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for rd := wire.NewReader(c); ; {
		if err := rd.ReadInto(&wire.Message{}); err != nil {
			return // connection closed or reset: correct
		}
	}
}

// silentPeer claims every segment but never answers requests, forcing the
// downloader's watchdog to expire the stalled transfers.
func startSilentPeer(t *testing.T, ih wire.InfoHash, segments int) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := wire.ReadHandshake(c); err != nil {
					return
				}
				var id wire.PeerID
				copy(id[:], "SILENTSILENTSILENTSI")
				if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: ih, PeerID: id}); err != nil {
					return
				}
				have := make([]bool, segments)
				for i := range have {
					have[i] = true
				}
				_ = wire.NewWriter(c).WriteMsg(&wire.Message{Type: wire.MsgBitfield, Bitfield: wire.EncodeBitfield(have)})
				// Read requests forever, never answering.
				for rd := wire.NewReader(c); ; {
					if err := rd.ReadInto(&wire.Message{}); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func TestDownloadTimeoutRecovers(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)

	// Publish the swarm, then take the seeder away so the silent peer is
	// the only source at join time.
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ih := seeder.InfoHash()
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}

	silent := startSilentPeer(t, ih, len(blobs))

	cfg := fastConfig()
	cfg.DownloadTimeout = 1 * time.Second
	viewer, err := Join(trk, ih, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Connect(silent.Addr().String()); err != nil {
		t.Fatal(err)
	}

	// Give the viewer time to request from the silent peer and time out.
	time.Sleep(1500 * time.Millisecond)

	// Now a real seeder returns (same manifest, same info hash).
	seeder2, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder2.Close()
	if seeder2.InfoHash() != ih {
		t.Fatalf("republish changed info hash")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := viewer.WaitComplete(ctx); err != nil {
		t.Fatalf("viewer never recovered from the silent peer: %v", err)
	}
}

// TestSlowReaderCannotWedgeViewer: a remote that requests blocks and
// never reads fills its socket, so the viewer's writes to it block. They
// must time out. A write blocked for good holds that conn's write lock,
// the next broadcastHave (run on the reader of the conn that delivered
// the segment) waits on it forever, and the delivering conn never reads
// again: the viewer stalls with the seeder still connected.
func TestSlowReaderCannotWedgeViewer(t *testing.T) {
	m, blobs := testSwarmData(t, 10*time.Second, 2*time.Second)
	trk := newTracker(t)
	scfg := fastConfig()
	scfg.Shape = &shaper.Config{RateBytesPerSec: 96 * 1024}
	seeder, err := Seed(trk, m, blobs, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	cfg := fastConfig()
	cfg.DownloadTimeout = time.Second
	viewer, err := Join(trk, seeder.InfoHash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()

	// The slow reader arrives once the viewer holds segment 0 to serve it.
	for deadline := time.Now().Add(10 * time.Second); !viewer.Store().Bitfield()[0]; {
		if time.Now().After(deadline) {
			t.Fatal("viewer never got segment 0")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if viewer.Store().Complete() {
		t.Fatal("viewer finished before the slow reader arrived; the test is vacuous")
	}
	slow := dialProbe(t, viewer.Addr(), seeder.InfoHash(), "SLOWSLOWSLOWSLOWSLOW")
	writer := make(chan struct{})
	defer func() {
		slow.c.Close() // unblocks the writer if the viewer stopped reading it
		<-writer
	}()
	go func() {
		defer close(writer)
		wr := wire.NewWriter(slow.c)
		req := &wire.Message{Type: wire.MsgRequest, Length: wire.DefaultBlockLen}
		for i := 0; i < 20000; i++ {
			if wr.WriteMsg(req) != nil {
				return // the viewer dropped us, or the test closed the conn
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if err := viewer.WaitComplete(ctx); err != nil {
		t.Fatalf("a peer that stops reading wedged the viewer at %d of %d segments: %v",
			viewer.Stats().SegmentsHeld, len(blobs), err)
	}
}

// probeConn is a minimal hand-driven wire client for protocol tests. Its
// one Reader owns the stream after the handshake: a Reader reads ahead.
type probeConn struct {
	c  net.Conn
	rd *wire.Reader
}

func dialProbe(t *testing.T, addr string, ih wire.InfoHash, tag string) *probeConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var id wire.PeerID
	copy(id[:], tag)
	if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: ih, PeerID: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHandshake(c); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &probeConn{c: c, rd: wire.NewReader(c)}
}

// readUntil returns the first message of one of the wanted types, skipping
// others (bitfield, have, ...).
func (p *probeConn) readUntil(t *testing.T, want ...wire.MessageType) *wire.Message {
	t.Helper()
	_ = p.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		m := &wire.Message{}
		if err := p.rd.ReadInto(m); err != nil {
			t.Fatalf("probe read: %v", err)
		}
		for _, w := range want {
			if m.Type == w {
				return m
			}
		}
	}
}

func TestUploadSlotsChokeAndUnchoke(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	cfg := fastConfig()
	cfg.MaxUploadSlots = 1
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	// Probe 1 takes the only slot.
	p1 := dialProbe(t, seeder.Addr(), seeder.InfoHash(), "PROBE-ONE-PROBE-ONE-")
	if err := wire.NewWriter(p1.c).WriteMsg(&wire.Message{Type: wire.MsgRequest, Index: 0, Offset: 0, Length: 1024}); err != nil {
		t.Fatal(err)
	}
	if got := p1.readUntil(t, wire.MsgPiece, wire.MsgChoke); got.Type != wire.MsgPiece {
		t.Fatalf("probe 1 got message type %d, want piece (%d)", got.Type, wire.MsgPiece)
	}

	// Probe 2 must be choked while probe 1 holds the slot.
	p2 := dialProbe(t, seeder.Addr(), seeder.InfoHash(), "PROBE-TWO-PROBE-TWO-")
	if err := wire.NewWriter(p2.c).WriteMsg(&wire.Message{Type: wire.MsgRequest, Index: 0, Offset: 0, Length: 1024}); err != nil {
		t.Fatal(err)
	}
	if got := p2.readUntil(t, wire.MsgPiece, wire.MsgChoke); got.Type != wire.MsgChoke {
		t.Fatalf("probe 2 got message type %d, want choke (%d)", got.Type, wire.MsgChoke)
	}

	// Probe 1 disconnects: its slot must pass to probe 2 via unchoke.
	p1.c.Close()
	if got := p2.readUntil(t, wire.MsgUnchoke); got.Type != wire.MsgUnchoke {
		t.Fatalf("probe 2 got message type %d, want unchoke (%d)", got.Type, wire.MsgUnchoke)
	}
	// And probe 2 can now be served.
	if err := wire.NewWriter(p2.c).WriteMsg(&wire.Message{Type: wire.MsgRequest, Index: 0, Offset: 0, Length: 1024}); err != nil {
		t.Fatal(err)
	}
	if got := p2.readUntil(t, wire.MsgPiece, wire.MsgChoke); got.Type != wire.MsgPiece {
		t.Fatalf("probe 2 after unchoke got message type %d, want piece (%d)", got.Type, wire.MsgPiece)
	}
}

func TestSwarmCompletesUnderTightUploadSlots(t *testing.T) {
	m, blobs := testSwarmData(t, 6*time.Second, 2*time.Second)
	cfg := fastConfig()
	cfg.MaxUploadSlots = 1
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()
	var viewers []*Node
	for i := 0; i < 3; i++ {
		v, err := Join(trk, seeder.InfoHash(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		viewers = append(viewers, v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, v := range viewers {
		if err := v.WaitComplete(ctx); err != nil {
			t.Fatalf("viewer %d starved under slot pressure: %v", i, err)
		}
	}
}

// TestInboundConnectionCap floods a seeder with 80 concurrent inbound
// handshakes, each under a distinct peer ID: the node keeps at most
// maxConns of them and closes the rest.
func TestInboundConnectionCap(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	const dials = 80
	var wg sync.WaitGroup
	conns := make([]net.Conn, dials)
	admitted := make([]bool, dials)
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.DialTimeout("tcp", seeder.Addr(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			conns[i] = c
			var id wire.PeerID
			id[0], id[1] = 'F', byte(i)
			_ = c.SetDeadline(time.Now().Add(10 * time.Second))
			if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: seeder.InfoHash(), PeerID: id}); err != nil {
				t.Error(err)
				return
			}
			if _, err := wire.ReadHandshake(c); err != nil {
				t.Error(err)
				return
			}
			// An admitted connection is registered before its bitfield is
			// sent; a refused one is closed instead.
			admitted[i] = wire.NewReader(c).ReadInto(&wire.Message{}) == nil
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	n := 0
	for _, ok := range admitted {
		if ok {
			n++
		}
	}
	if got := seeder.Stats().Connections; got > maxConns || got != n {
		t.Errorf("%d concurrent dials left %d connections (%d admitted), want at most %d", dials, got, n, maxConns)
	}
}
