package peer

import (
	"testing"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/reputation"
	"p2psplice/internal/wire"
)

// The selection rules themselves — ranking, the two classes, the escape
// hatch — are tested on internal/core (TestPickTable). The tests here are
// the node's half: that the facts it gathers from its connection set,
// download pool and reputation table make the core reach the choice each
// of these regressions pinned when selection was the node's own code.

func pickTestNode() *Node {
	cfg := Config{}.withDefaults()
	return &Node{
		cfg:     cfg,
		started: time.Now(),
		conns:   make(map[wire.PeerID]*conn),
		active:  make(map[int]*segDownload),
		rep:     reputation.NewTable[wire.PeerID](*cfg.Reputation),
	}
}

// pickManifest is a four-segment clip.
func pickManifest(t *testing.T) *container.Manifest {
	t.Helper()
	m, _ := testSwarmData(t, 8*time.Second, 2*time.Second)
	return m
}

// pickNode is an offline leecher (no goroutines, no sockets) on
// pickManifest.
func pickNode(t *testing.T) *Node {
	t.Helper()
	return offlineLeecher(t, pickManifest(t), nil)
}

// holder registers a fake connection whose remote holds every segment.
func holder(t *testing.T, n *Node, id byte) *conn {
	t.Helper()
	all := make([]bool, len(n.dl.Pool.Have))
	for i := range all {
		all[i] = true
	}
	return addFakeConn(t, n, id, all, false)
}

// pick gathers the node's facts and returns the connection the scheduler
// would fetch segment idx from.
func pick(n *Node, idx int) *conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.buildSourceSetLocked(n.now())
	if src := n.set.Pick(idx); src != nil {
		return src.Owner.(*conn)
	}
	return nil
}

// drop removes c from the connection set, as dropConn does, and all its
// downloads from the pool.
func drop(n *Node, c *conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.unseatLocked(c)
	for idx, d := range n.active {
		if d.conn == c {
			n.dl.End(idx, n.now(), false)
			n.forgetLocked(idx)
		}
	}
}

// Regression: a verify failure closes the serving conn, but the conn
// stays in n.conns until its reader goroutine runs dropConn. The
// immediate reschedule must not hand the segment back to the dead conn
// — pre-fix the segment stranded until the watchdog.
func TestPickConnSkipsClosedConns(t *testing.T) {
	n := pickNode(t)
	dead := holder(t, n, 'a')
	dead.close()
	if got := pick(n, 0); got != nil {
		t.Fatal("picked a closed conn")
	}
	// With a live alternative present, the closed conn must lose even
	// though it looks less busy (its downloads were orphaned).
	live := holder(t, n, 'b')
	injectDownload(n, live, 1, 0)
	if got := pick(n, 0); got != live {
		t.Fatalf("picked %v, want the live conn", got)
	}
}

// Regression: a peer that served corrupt data was re-picked over a clean
// source whenever it was less busy, so a persistent corrupter could
// capture the schedule indefinitely. A recorded verify failure raises the
// peer's reputation score, which outranks busyness.
func TestPickConnDeprioritizesVerifyFailers(t *testing.T) {
	n := pickNode(t)
	bad, good := holder(t, n, 'a'), holder(t, n, 'b')
	n.rep.Observe(bad.id, n.now(), reputation.ObsVerifyFail)
	injectDownload(n, good, 1, 0) // the clean conn is busier
	if got := pick(n, 0); got != good {
		t.Fatal("preferred a conn with a recorded verify failure")
	}
	// A failing conn is still a last resort when it is the only source.
	drop(n, good)
	if got := pick(n, 0); got != bad {
		t.Fatal("a sole source must still be picked despite verify failures")
	}
}

// Regression: failure counts never decayed, so one long-ago verify
// failure deprioritized a peer forever against busier alternatives.
// Scores decay exponentially (reputation.Config.DecayHalfLife); after
// enough quiet time the offender competes on busyness again.
func TestPickConnVerifyFailureDecays(t *testing.T) {
	n := pickNode(t)
	bad, good := holder(t, n, 'a'), holder(t, n, 'b')
	n.rep.Observe(bad.id, n.now(), reputation.ObsVerifyFail)
	injectDownload(n, good, 1, 0)
	if got := pick(n, 0); got != good {
		t.Fatal("a fresh verify failure must deprioritize the offender")
	}
	// Ten quiet minutes (20 default half-lives): the score decays to the
	// floor and snaps to zero, so least-busy wins again. Every time the
	// scheduler reads is on the playback clock, so backdating the node's
	// start moves all of them.
	n.started = n.started.Add(-10 * time.Minute)
	if got := pick(n, 0); got != bad {
		t.Fatal("a decayed verify failure must not deprioritize the peer forever")
	}
}

// Enough verify failures quarantine the conn outright: it loses to any
// healthy source regardless of busyness, but remains reachable when it is
// the only source left (the sole-source escape hatch).
func TestPickConnQuarantineAndEscapeHatch(t *testing.T) {
	n := pickNode(t)
	bad, good := holder(t, n, 'a'), holder(t, n, 'b')
	for i := 0; i < 3; i++ {
		n.rep.Observe(bad.id, n.now(), reputation.ObsVerifyFail)
	}
	if !n.rep.Quarantined(bad.id, n.now()) {
		t.Fatal("three verify failures at default costs must quarantine")
	}
	injectDownload(n, good, 1, 0)
	if got := pick(n, 0); got != good {
		t.Fatal("picked a quarantined conn over a healthy one")
	}
	drop(n, good)
	if got := pick(n, 0); got != bad {
		t.Fatal("escape hatch failed: a quarantined sole source must still be picked")
	}
}

// Equal score and equal load must break on the lowest source ID — the
// lowest roster slot — every time, whatever the conns map's randomized
// order. A conn takes the lowest free slot, so among conns that never
// left it is the oldest, and a newcomer takes a dropped conn's place.
func TestPickTieBreaksOnLowestID(t *testing.T) {
	m := pickManifest(t)
	for rep := 0; rep < 100; rep++ {
		n := offlineLeecher(t, m, nil)
		var conns []*conn
		for _, id := range []byte("hgfedcba") {
			conns = append(conns, holder(t, n, id))
		}
		if got := pick(n, 0); got != conns[0] {
			t.Fatalf("repetition %d: picked conn %q among equals, want the oldest %q", rep, got.id[0], conns[0].id[0])
		}
		drop(n, conns[0])
		drop(n, conns[1])
		late := holder(t, n, 'z')
		if got := pick(n, 0); got != late || late.src.ID != 0 {
			t.Fatalf("repetition %d: picked conn %q among equals, want %q in the freed slot 0 (slot %d)", rep, got.id[0], late.id[0], late.src.ID)
		}
	}
}

// The node supplies the scheduler exactly the facts DESIGN.md §4c's table
// says it does: membership (open, unchoked, below maxConcurrentPerConn),
// the remote's bitfield, its own downloads on the conn as the load, the
// reputation table's score and quarantine flag as of now — and zeros for
// what a node cannot see.
func TestNodeGathersSourceFacts(t *testing.T) {
	n := pickNode(t)
	segs := len(n.dl.Pool.Have)
	only := func(i int) []bool { h := make([]bool, segs); h[i] = true; return h }
	choked := addFakeConn(t, n, 'a', only(0), true)
	closed := addFakeConn(t, n, 'b', only(1), false)
	closed.close()
	full := holder(t, n, 'c')
	injectDownload(n, full, 0, 0)
	injectDownload(n, full, 1, 0)
	open := addFakeConn(t, n, 'd', only(2), false)
	n.rep.Observe(open.id, n.now(), reputation.ObsSlowServe)
	quar := addFakeConn(t, n, 'e', only(3), false)
	for i := 0; i < 3; i++ {
		n.rep.Observe(quar.id, n.now(), reputation.ObsVerifyFail)
	}

	// Each remaining wanted segment has one holder outside {full}, so a nil
	// pick means that holder is not in the set.
	for idx, want := range []*conn{nil, nil, open, quar} {
		if got := pick(n, idx); got != want {
			t.Errorf("segment %d: picked %p, want %p of choked=%p closed=%p full=%p open=%p quarantined=%p",
				idx, got, want, choked, closed, full, open, quar)
		}
	}
	if full.src.Uploads != 2 || open.src.Uploads != 0 {
		t.Errorf("loads = %d and %d, want the conns' 2 and 0 downloads in flight", full.src.Uploads, open.src.Uploads)
	}
	if open.src.Score <= 0 || open.src.Score > n.rep.Score(open.id, 0) || open.src.Quarantined {
		t.Errorf("slow server gathered as score %v quarantined=%v", open.src.Score, open.src.Quarantined)
	}
	if !quar.src.Quarantined {
		t.Error("quarantine flag not gathered")
	}
	for _, c := range []*conn{choked, closed, full, open, quar} {
		if s := c.src; s.WholeClip || s.Sending != nil || s.Fetching != nil || s.Relay != nil {
			t.Errorf("conn %q supplies a fact the node cannot see: %+v", c.id[0], s)
		}
	}
	// Finishing a download returns the load.
	drop(n, open)
	n.mu.Lock()
	n.dl.End(1, n.now(), false)
	n.forgetLocked(1)
	n.mu.Unlock()
	if full.src.Uploads != 1 || n.dl.Pool.InFlight != 1 || !n.dl.Pool.Wanted(1) {
		t.Errorf("after one drop: load %d, in flight %d, wanted(1)=%v", full.src.Uploads, n.dl.Pool.InFlight, n.dl.Pool.Wanted(1))
	}
}
