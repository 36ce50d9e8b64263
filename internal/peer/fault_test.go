package peer

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"p2psplice/internal/shaper"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
	"p2psplice/internal/wire"
)

// Regression test for the handshake deadline: both the dialing and the
// accepting path set a connection deadline bounding the handshake, and
// both must clear it afterwards. A deadline left armed does nothing for
// DialTimeout and then kills the idle connection's read loop — so hold
// two freshly handshaken connections idle for several deadline periods
// and require that they survive.
func TestHandshakeClearsDeadline(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	cfg := fastConfig()
	cfg.DialTimeout = 300 * time.Millisecond
	cfg.AnnounceInterval = time.Hour // only the two hand-made conns below
	node, err := Seed(trk, m, blobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Accept path: a raw client handshakes with the node, then idles.
	inbound, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer inbound.Close()
	clientID, err := wire.NewPeerID()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteHandshake(inbound, wire.Handshake{InfoHash: node.InfoHash(), PeerID: clientID}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHandshake(inbound); err != nil {
		t.Fatal(err)
	}

	// Initiate path: the node dials a fake peer that handshakes, then idles.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	remoteID, err := wire.NewPeerID()
	if err != nil {
		t.Fatal(err)
	}
	// held keeps the fake peer's conn reachable until the test ends: a
	// conn the collector finds unreachable is closed by its finalizer.
	held := make(chan net.Conn, 1)
	t.Cleanup(func() {
		select {
		case c := <-held:
			c.Close()
		default:
		}
	})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		held <- c
		hs, err := wire.ReadHandshake(c)
		if err != nil {
			return
		}
		_ = wire.WriteHandshake(c, wire.Handshake{InfoHash: hs.InfoHash, PeerID: remoteID})
		// Keep c open and silent for the rest of the test.
	}()
	if err := node.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	// The node writes its handshake reply before it registers the accepted
	// conn, so the inbound one may not be counted yet.
	waitFor(t, "both handshaken connections to register", 2*time.Second, func() bool { return node.Stats().Connections == 2 })

	// Idle for three deadline periods. An armed deadline fails the read
	// loop at ~DialTimeout, which drops the connection.
	time.Sleep(3*cfg.DialTimeout + 200*time.Millisecond)

	if got := node.Stats().Connections; got != 2 {
		t.Fatalf("connections after idling past the deadline = %d, want 2 (handshake left the conn deadline armed)", got)
	}
}

// waitStoreCount polls until the node holds at least want segments.
func waitStoreCount(t *testing.T, n *Node, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for n.Store().Count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("store stuck at %d/%d segments", n.Store().Count(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The acceptance scenario for the real stack: a leecher completes its
// download through a mid-stream seeder crash plus tracker outage,
// sourcing the rest from another leecher via the cached peer list. The
// test fires both faults itself, closing the tracker server and the
// seeder mid-stream.
func TestSurvivesSeederCrashAndTrackerOutage(t *testing.T) {
	m, blobs := testSwarmData(t, 6*time.Second, 2*time.Second)
	srv := httptest.NewServer(tracker.NewServer().Handler())
	defer srv.Close()
	trk := tracker.NewClient(srv.URL, nil)

	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// First leecher completes while everything is healthy: it becomes the
	// surviving source.
	l1, err := Join(trk, seeder.InfoHash(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	if err := l1.WaitComplete(ctx); err != nil {
		t.Fatal(err)
	}

	// Second leecher joins, traced and bandwidth-shaped so the download
	// spans a few seconds and the faults land mid-stream.
	buf := trace.NewBuffer()
	cfg := fastConfig()
	cfg.Trace = trace.New(buf)
	cfg.Shape = &shaper.Config{RateBytesPerSec: 48 * 1024}
	l2, err := Join(tracker.NewClient(srv.URL, nil), seeder.InfoHash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	waitStoreCount(t, l2, 1, 30*time.Second)
	if l2.Store().Complete() {
		t.Skip("clip too small: download completed before the faults could fire")
	}

	// Mid-stream: the seeder crashes and the tracker goes away, together.
	// Neither comes back within the test.
	srv.CloseClientConnections()
	srv.Close()
	_ = seeder.Close()

	// The leecher must still finish: announces fail (and are retried with
	// backoff), the cached peer list keeps it attached to l1, and every
	// segment the seeder held is also held by l1.
	if err := l2.WaitComplete(ctx); err != nil {
		t.Fatalf("leecher did not survive seeder crash + tracker outage: %v", err)
	}

	// The outage must be visible in the trace for stall attribution.
	sawTrackerDown := false
	for _, ev := range buf.Events() {
		if ev.Cat == trace.CatFault && ev.Name == trace.EvTrackerDown {
			sawTrackerDown = true
			break
		}
	}
	if !sawTrackerDown {
		t.Error("no tracker_down fault event traced during the outage")
	}
}

// Tracker loss and recovery: announces fail while the tracker returns
// 503, the node keeps its connections and emits tracker_down once, and
// on recovery re-announce resumes and is traced as tracker_up.
func TestTrackerRecoveryResumesAnnounce(t *testing.T) {
	var down atomic.Bool
	inner := tracker.NewServer().Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "tracker outage", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	seeder, err := Seed(tracker.NewClient(srv.URL, nil), m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	buf := trace.NewBuffer()
	cfg := fastConfig()
	cfg.Trace = trace.New(buf)
	l, err := Join(tracker.NewClient(srv.URL, nil), seeder.InfoHash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := l.WaitComplete(ctx); err != nil {
		t.Fatal(err)
	}

	countFault := func(name string) int {
		n := 0
		for _, ev := range buf.Events() {
			if ev.Cat == trace.CatFault && ev.Name == name {
				n++
			}
		}
		return n
	}
	waitFault := func(name string) {
		deadline := time.Now().Add(30 * time.Second)
		for countFault(name) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no %s fault event traced", name)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	down.Store(true)
	waitFault(trace.EvTrackerDown)
	// The node must hold on to its swarm connections while degraded.
	if got := l.Stats().Connections; got == 0 {
		t.Error("leecher dropped all connections during the tracker outage")
	}

	down.Store(false)
	waitFault(trace.EvTrackerUp)
	// Loss and recovery are edge-triggered: one event per transition, not
	// one per failed announce.
	if got := countFault(trace.EvTrackerDown); got != 1 {
		t.Errorf("tracker_down traced %d times for one outage, want 1", got)
	}
}

// Consecutive failed dials to one address back off 500 ms, doubling per
// failure up to 15 s; a successful dial clears the address's state.
func TestDialBackoffSchedule(t *testing.T) {
	n := &Node{dialState: map[string]*dialBackoff{}}
	const addr = "10.0.0.1:6881"
	refused := errors.New("connection refused")
	want := []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 15 * time.Second, 15 * time.Second,
	}
	now := time.Minute
	for i, wait := range want {
		if !n.shouldDialLocked(addr, now) {
			t.Fatalf("failure %d: dial refused at %v", i+1, now)
		}
		n.noteDialLocked(addr, now, refused)
		if n.shouldDialLocked(addr, now+wait-time.Nanosecond) {
			t.Errorf("failure %d: redial permitted before %v", i+1, wait)
		}
		now += wait
	}
	n.noteDialLocked(addr, now, nil)
	if _, ok := n.dialState[addr]; ok {
		t.Fatal("a successful dial left backoff state behind")
	}
	if !n.shouldDialLocked(addr, now) {
		t.Error("dial refused after a success cleared the state")
	}
}

// A node at maxConns dials nobody: startConn would refuse the conn after
// the handshake, and the refusal would back a healthy address off and
// count as a dial failure.
func TestNoDialAtConnectionCap(t *testing.T) {
	m, _ := testSwarmData(t, 8*time.Second, 2*time.Second)
	reg := trace.NewRegistry()
	cfg := fastConfig()
	cfg.Metrics = reg
	n := newIdleLeecher(t, m, nil, cfg)
	for i := range maxConns {
		addFakeConn(t, n, byte(i+1), make([]bool, len(m.Segments)), false)
	}

	// A live peer that answers the handshake, listed at the tracker so
	// every announce keeps it in the node's cache.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var liveID wire.PeerID
	copy(liveID[:], "LIVE-CACHED-PEER----")
	var accepted atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer c.Close()
				h, err := wire.ReadHandshake(c)
				if err != nil {
					return
				}
				_ = wire.WriteHandshake(c, wire.Handshake{InfoHash: h.InfoHash, PeerID: liveID})
				_, _ = io.Copy(io.Discard, c)
			}()
		}
	}()
	if _, err := n.trk.Announce(n.infoHash, liveID, ln.Addr().String(), true); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.cachedPeers = append(n.cachedPeers, tracker.PeerInfo{PeerID: liveID.String(), Addr: ln.Addr().String(), Seeder: true})
	n.mu.Unlock()

	n.reconnectPeers()
	if got := accepted.Load(); got != 0 {
		t.Errorf("the live peer accepted %d dials from a node at the cap", got)
	}
	if got := counter(reg, "dial_failures"); got != 0 {
		t.Errorf("dial_failures = %d, want 0", got)
	}
	n.mu.Lock()
	backoffs := len(n.dialState)
	n.mu.Unlock()
	if backoffs != 0 {
		t.Errorf("%d addresses backed off; a refusal at the cap is not a dial failure", backoffs)
	}
}
