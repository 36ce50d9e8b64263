package peer

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/trace"
	"p2psplice/internal/wire"
)

// newIdleLeecher builds a leecher over store (a fresh Store if nil) with no
// live connections: the manifest is published to a tracker nobody else
// joined, so the node's connection set is entirely under the test's control.
func newIdleLeecher(t *testing.T, m *container.Manifest, store SegmentStore, cfg Config) *Node {
	t.Helper()
	trk := newTracker(t)
	ih, err := trk.Publish(m)
	if err != nil {
		t.Fatal(err)
	}
	if store == nil {
		if store, err = NewStore(len(m.Segments)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := newNode(trk, ih, m, store, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// addFakeConn registers a hand-built connection whose remote end only
// drains what the node sends, so the test controls exactly which
// segments appear servable and whether the remote has choked us.
func addFakeConn(t *testing.T, n *Node, id byte, have []bool, choked bool) *conn {
	t.Helper()
	server, client := net.Pipe()
	t.Cleanup(func() { server.Close(); client.Close() })
	go io.Copy(io.Discard, client) //nolint — drains pipelined requests
	var pid wire.PeerID
	pid[0] = id
	c := &conn{
		node:   n,
		id:     pid,
		raw:    server,
		wr:     wire.NewWriter(server),
		src:    core.Source{ID: int(id), Have: append([]bool(nil), have...)},
		choked: choked,
	}
	c.src.Owner = c
	n.mu.Lock()
	n.conns[pid] = c
	n.mu.Unlock()
	return c
}

func activeIndices(n *Node) map[int]*conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[int]*conn, len(n.active))
	for idx, d := range n.active {
		out[idx] = d.conn
	}
	return out
}

// Regression test for the scheduler scan budget: with a choked peer
// holding the front of the pool window, the scheduler must skip past it
// and launch the servable segments behind it. The pre-fix scheduler
// budgeted its scan at `target` considered segments, so the two choked
// front segments exhausted the budget and nothing launched at all.
func TestScheduleSkipsChokedFrontOfWindow(t *testing.T) {
	m, _ := testSwarmData(t, 8*time.Second, 2*time.Second)
	if len(m.Segments) < 4 {
		t.Fatalf("need at least 4 segments, got %d", len(m.Segments))
	}
	cfg := fastConfig()
	cfg.Policy = core.FixedPool{K: 2}
	n := newIdleLeecher(t, m, nil, cfg)

	segs := len(m.Segments)
	frontOnly := make([]bool, segs)
	frontOnly[0], frontOnly[1] = true, true
	rest := make([]bool, segs)
	for i := 2; i < segs; i++ {
		rest[i] = true
	}
	addFakeConn(t, n, 'a', frontOnly, true) // holds 0,1 but choked us
	addFakeConn(t, n, 'b', rest, false)

	n.schedule()

	act := activeIndices(n)
	if len(act) != 2 {
		t.Fatalf("scheduler launched %d downloads (%v), want 2: the choked "+
			"front of the window must not consume the scan budget", len(act), act)
	}
	for _, idx := range []int{2, 3} {
		if _, ok := act[idx]; !ok {
			t.Fatalf("segment %d not scheduled; active = %v", idx, act)
		}
	}
}

// hookPutStore runs hook at the top of the first Put — inside the verify
// window, after the segment's last block arrived and before it is held —
// and fails that Put if hook does.
type hookPutStore struct {
	SegmentStore
	hook func(i int) error
	puts int
}

func (s *hookPutStore) Put(i int, blob []byte) error {
	s.puts++
	if s.puts == 1 && s.hook != nil {
		if err := s.hook(i); err != nil {
			return err
		}
	}
	return s.SegmentStore.Put(i, blob)
}

// newWindowLeecher is an idle leecher over a hookPutStore, with every
// segment servable on conn a and, if two, on conn b too.
func newWindowLeecher(t *testing.T, k int, two bool) (*Node, *hookPutStore, *conn, []byte, *trace.Registry) {
	t.Helper()
	m, blobs := testSwarmData(t, 8*time.Second, 2*time.Second)
	store, err := NewStore(len(m.Segments))
	if err != nil {
		t.Fatal(err)
	}
	hs := &hookPutStore{SegmentStore: store}
	reg := trace.NewRegistry()
	cfg := fastConfig()
	cfg.Policy = core.FixedPool{K: k}
	cfg.Metrics = reg
	n := newIdleLeecher(t, m, hs, cfg)
	all := make([]bool, len(m.Segments))
	for i := range all {
		all[i] = true
	}
	ca := addFakeConn(t, n, 'a', all, false)
	if two {
		addFakeConn(t, n, 'b', all, false)
	}
	return n, hs, ca, blobs[0], reg
}

// injectDownload registers an in-flight download of segment idx on c as
// the scheduler would, its last progress age ago. On a live node the
// tracker loop's own schedule may have launched idx already; that
// download is replaced.
func injectDownload(n *Node, c *conn, idx int, age time.Duration) {
	n.mu.Lock()
	if n.active[idx] != nil {
		n.dropActiveLocked(idx)
		n.est.Finish(n.now())
	}
	n.pool.Start(idx, &c.src)
	n.launchLocked(c, idx, n.now()-age)
	n.mu.Unlock()
}

// feedSegment delivers blob to the node as wire pieces on c.
func feedSegment(n *Node, c *conn, idx int, blob []byte) {
	for off := 0; off < len(blob); off += wire.DefaultBlockLen {
		n.onPiece(c, &wire.Message{
			Type:   wire.MsgPiece,
			Index:  uint32(idx),
			Offset: uint32(off),
			Data:   blob[off:min(off+wire.DefaultBlockLen, len(blob))],
		})
	}
}

// Regression test for the store-failure path: when store.Put rejects a
// verified segment, the segment leaves the pool without being held, so
// the node must reschedule it immediately. Pre-fix it just logged and
// returned, leaving the segment unpooled until an unrelated event.
func TestStoreFailureReschedulesImmediately(t *testing.T) {
	n, hs, ca, blob, _ := newWindowLeecher(t, 1, true)
	hs.hook = func(int) error { return errors.New("induced store failure") }
	injectDownload(n, ca, 0, 0)
	feedSegment(n, ca, 0, blob)

	// The assertion runs synchronously after onPiece: the watchdog (1s
	// cadence) cannot have rescued an unrescheduled segment yet.
	act := activeIndices(n)
	if _, ok := act[0]; !ok {
		t.Fatalf("segment 0 not rescheduled after store failure; active = %v", act)
	}
	if got := n.Stats().StoreFailures; got != 1 {
		t.Fatalf("StoreFailures = %d, want 1", got)
	}
}

// Regression test for the verify window: a schedule that runs while a
// completed segment is verified and stored — here re-entered from Put, as
// a HAVE from another peer triggers one — must not launch that segment
// again. Pre-fix onPiece took the download out of the pool before
// verifying, and the segment was downloaded twice.
func TestVerifyWindowDoesNotRelaunch(t *testing.T) {
	n, hs, ca, blob, _ := newWindowLeecher(t, 2, true)
	var during map[int]*conn
	var claimed bool
	hs.hook = func(i int) error {
		n.schedule()
		during = activeIndices(n)
		n.mu.Lock()
		d := n.active[i]
		claimed = d != nil && d.complete()
		n.mu.Unlock()
		return nil
	}
	injectDownload(n, ca, 0, 0)
	feedSegment(n, ca, 0, blob)

	if !claimed {
		t.Fatalf("segment 0 relaunched while it was verified; active = %v", during)
	}
	if _, ok := during[1]; !ok {
		t.Fatalf("the window's schedule launched nothing; active = %v", during)
	}
	if held := hs.Bitfield()[0]; !held || hs.puts != 1 {
		t.Fatalf("segment 0 held %v after %d puts, want held after 1", held, hs.puts)
	}
}

// A PIECE repeated (the KindDuplicate fault) while its completed segment
// is verified, or after it is stored, completes the segment exactly once.
func TestDuplicatePieceCompletesOnce(t *testing.T) {
	n, hs, ca, blob, reg := newWindowLeecher(t, 1, false)
	last := (len(blob) - 1) / wire.DefaultBlockLen * wire.DefaultBlockLen
	again := func() {
		n.onPiece(ca, &wire.Message{Type: wire.MsgPiece, Index: 0, Offset: uint32(last), Data: blob[last:]})
	}
	hs.hook = func(int) error { again(); return nil }
	injectDownload(n, ca, 0, 0)
	feedSegment(n, ca, 0, blob)
	again()

	if hs.puts != 1 {
		t.Fatalf("segment 0 stored %d times, want 1", hs.puts)
	}
	if got := reg.Counter("segments_done").Value(); got != 1 {
		t.Fatalf("segments_done = %d, want 1", got)
	}
	if got := n.Stats().DownloadedBytes; got != int64(len(blob)) {
		t.Fatalf("DownloadedBytes = %d, want %d: a repeat counted twice", got, len(blob))
	}
}

// A PIECE whose length is not its block's is refused on arrival: the conn
// closes and no block is marked, so 1-byte PIECEs, one per block, cannot
// "complete" a segment and reach its verify.
func TestShortPieceClosesConn(t *testing.T) {
	n, _, ca, blob, _ := newWindowLeecher(t, 1, false)
	injectDownload(n, ca, 0, 0)
	short := func(off int) {
		n.onPiece(ca, &wire.Message{Type: wire.MsgPiece, Index: 0, Offset: uint32(off), Data: blob[off : off+1]})
	}
	short(0)

	if !ca.closed.Load() {
		t.Error("conn open after a short PIECE")
	}
	n.mu.Lock()
	marked := n.active[0] != nil && n.active[0].blocks[0]
	n.mu.Unlock()
	if marked {
		t.Error("a short PIECE marked its block received")
	}
	for off := wire.DefaultBlockLen; off < len(blob); off += wire.DefaultBlockLen {
		short(off)
	}
	if st := n.Stats(); st.DownloadedBytes != 0 || st.VerifyFailures != 0 {
		t.Errorf("DownloadedBytes %d, VerifyFailures %d after short PIECEs; want 0, 0", st.DownloadedBytes, st.VerifyFailures)
	}
}

// A conn closed or choked between a segment's completion and its Put
// leaves the download for onPiece to end: the pool, the conn's load and
// the meter each count it out exactly once (never negative), and the
// verified segment is stored.
func TestConnLostInVerifyWindow(t *testing.T) {
	for name, lose := range map[string]func(n *Node, c *conn){
		"closed": func(n *Node, c *conn) { c.close(); n.dropConn(c) },
		"choked": func(n *Node, c *conn) { n.abandonDownloadsOn(c) },
	} {
		t.Run(name, func(t *testing.T) {
			n, hs, ca, blob, _ := newWindowLeecher(t, 1, false)
			hs.hook = func(int) error { lose(n, ca); return nil }
			injectDownload(n, ca, 0, 0)
			feedSegment(n, ca, 0, blob)

			n.mu.Lock()
			inflight, active, uploads := n.pool.InFlight, len(n.active), ca.src.Uploads
			n.mu.Unlock()
			if inflight != 0 || active != 0 || uploads != 0 {
				t.Errorf("pool.InFlight %d, active %d, conn uploads %d; want all 0", inflight, active, uploads)
			}
			if got := n.est.InFlight(); got != 0 {
				t.Errorf("meter in flight %d, want 0", got)
			}
			if !hs.Bitfield()[0] {
				t.Error("verified segment 0 not stored")
			}
		})
	}
}

// Regression test for expireStalled: expiring a download whose connection
// is already dead must reschedule directly. Pre-fix it relied on
// conn.close() → dropConn for the reschedule, a no-op on an
// already-closed connection.
func TestExpireStalledReschedulesOnLiveConn(t *testing.T) {
	m, _ := testSwarmData(t, 4*time.Second, 2*time.Second)
	cfg := fastConfig()
	cfg.Policy = core.FixedPool{K: 1}
	cfg.DownloadTimeout = 50 * time.Millisecond
	n := newIdleLeecher(t, m, nil, cfg)

	none := make([]bool, len(m.Segments))
	all := make([]bool, len(m.Segments))
	for i := range all {
		all[i] = true
	}
	// The stalled download sits on a connection that no longer advertises
	// anything and is already closed; only conn b can serve the retry.
	ca := addFakeConn(t, n, 'a', none, false)
	cb := addFakeConn(t, n, 'b', all, false)
	ca.close()

	injectDownload(n, ca, 0, time.Second)
	n.expireStalled()

	act := activeIndices(n)
	got, ok := act[0]
	if !ok {
		t.Fatalf("segment 0 not rescheduled after expiry; active = %v", act)
	}
	if got != cb {
		t.Fatalf("segment 0 rescheduled on %s, want the live holder %s", got.id, cb.id)
	}
	if stats := n.Stats(); stats.ExpiredDownloads != 1 {
		t.Fatalf("ExpiredDownloads = %d, want 1", stats.ExpiredDownloads)
	}
}

// A traced, metered leecher that completes a real swarm download reports
// pool-decision and completion events and non-zero counters.
func TestNodeTraceAndMetrics(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	buf := trace.NewBuffer()
	reg := trace.NewRegistry()
	cfg := fastConfig()
	cfg.Trace = trace.New(buf)
	cfg.Metrics = reg
	l, err := Join(trk, seeder.InfoHash(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	deadline := time.After(30 * time.Second)
	select {
	case <-l.Done():
	case <-deadline:
		t.Fatal("download did not complete")
	}

	names := map[string]int{}
	for _, ev := range buf.Events() {
		names[ev.Name]++
	}
	if names[trace.EvPoolFill] == 0 {
		t.Fatalf("no %s events: %v", trace.EvPoolFill, names)
	}
	if names[trace.EvSegComplete] != len(m.Segments) {
		t.Fatalf("%d %s events for %d segments: %v",
			names[trace.EvSegComplete], trace.EvSegComplete, len(m.Segments), names)
	}
	if got := reg.Counter("segments_done").Value(); got != int64(len(m.Segments)) {
		t.Fatalf("segments_done = %d, want %d", got, len(m.Segments))
	}
	if got := reg.Counter("bytes_rx").Value(); got <= 0 {
		t.Fatalf("bytes_rx = %d, want > 0", got)
	}
}
