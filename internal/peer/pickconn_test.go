package peer

import (
	"testing"
	"time"

	"p2psplice/internal/reputation"
	"p2psplice/internal/wire"
)

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

func pickTestConn(n *Node, tag string, segments int) *conn {
	var id wire.PeerID
	copy(id[:], tag)
	c := &conn{id: id, have: make([]bool, segments)}
	for i := range c.have {
		c.have[i] = true
	}
	n.conns[id] = c
	return c
}

// Regression: a verify failure closes the serving conn, but the conn
// stays in n.conns until its reader goroutine runs dropConn. The
// immediate reschedule must not hand the segment back to the dead conn
// — pre-fix, pickConnLocked did exactly that and the segment stranded
// until the watchdog.
func TestPickConnSkipsClosedConns(t *testing.T) {
	n := pickTestNode()
	dead := pickTestConn(n, "DEAD-CONN-DEAD-CONN-", 4)
	dead.closed = true

	n.mu.Lock()
	got := n.pickConnLocked(0)
	n.mu.Unlock()
	if got != nil {
		t.Fatal("pickConnLocked returned a closed conn")
	}

	// With a live alternative present, the closed conn must lose even
	// though it looks less busy (its downloads were orphaned).
	live := pickTestConn(n, "LIVE-CONN-LIVE-CONN-", 4)
	n.active[1] = &segDownload{index: 1, conn: live}
	n.mu.Lock()
	got = n.pickConnLocked(0)
	n.mu.Unlock()
	if got != live {
		t.Fatalf("pickConnLocked = %v, want the live conn", got)
	}
}

// Regression: a peer that served corrupt data was re-picked over a clean
// source whenever it was less busy, so a persistent corrupter (or a
// malicious peer) could capture the schedule indefinitely. A recorded
// verify failure now raises the peer's reputation score, which outranks
// busyness.
func TestPickConnDeprioritizesVerifyFailers(t *testing.T) {
	n := pickTestNode()
	bad := pickTestConn(n, "EVIL-CONN-EVIL-CONN-", 4)
	good := pickTestConn(n, "GOOD-CONN-GOOD-CONN-", 4)
	n.rep.Observe(bad.id, n.now(), reputation.ObsVerifyFail)
	// The clean conn is busier: pre-fix least-busy logic picked the
	// corrupter.
	n.active[1] = &segDownload{index: 1, conn: good}

	n.mu.Lock()
	got := n.pickConnLocked(0)
	n.mu.Unlock()
	if got != good {
		t.Fatal("pickConnLocked preferred a conn with a recorded verify failure")
	}

	// The score outranks busyness, but a failing conn is still a last
	// resort when it is the only source.
	delete(n.conns, good.id)
	n.mu.Lock()
	n.dropActiveLocked(1)
	got = n.pickConnLocked(0)
	n.mu.Unlock()
	if got != bad {
		t.Fatal("a sole source must still be picked despite verify failures")
	}
}

// Regression for the scoring half of the old verifyFailsBy map: failure
// counts never decayed, so one long-ago verify failure deprioritized a
// peer forever against busier alternatives. Scores now decay
// exponentially (reputation.Config.DecayHalfLife); after enough quiet
// time the offender competes on busyness again. Pre-fix this failed —
// the map's count was permanent.
func TestPickConnVerifyFailureDecays(t *testing.T) {
	n := pickTestNode()
	bad := pickTestConn(n, "EVIL-CONN-EVIL-CONN-", 4)
	good := pickTestConn(n, "GOOD-CONN-GOOD-CONN-", 4)
	n.rep.Observe(bad.id, n.now(), reputation.ObsVerifyFail)
	n.active[1] = &segDownload{index: 1, conn: good}

	n.mu.Lock()
	got := n.pickConnLocked(0)
	n.mu.Unlock()
	if got != good {
		t.Fatal("a fresh verify failure must deprioritize the offender")
	}

	// Ten quiet minutes (20 default half-lives): the score decays to the
	// floor and snaps to zero, so least-busy wins again. The playback
	// clock is advanced by backdating the node's start.
	n.started = n.started.Add(-10 * time.Minute)
	n.mu.Lock()
	got = n.pickConnLocked(0)
	n.mu.Unlock()
	if got != bad {
		t.Fatal("a decayed verify failure must not deprioritize the peer forever")
	}
}

// Enough verify failures quarantine the conn outright: it loses to any
// healthy source regardless of busyness, but remains reachable through
// the second selection pass when it is the only source left (the
// sole-source escape hatch).
func TestPickConnQuarantineAndEscapeHatch(t *testing.T) {
	n := pickTestNode()
	bad := pickTestConn(n, "EVIL-CONN-EVIL-CONN-", 4)
	good := pickTestConn(n, "GOOD-CONN-GOOD-CONN-", 4)
	for i := 0; i < 3; i++ {
		n.rep.Observe(bad.id, n.now(), reputation.ObsVerifyFail)
	}
	if !n.rep.Quarantined(bad.id, n.now()) {
		t.Fatal("three verify failures at default costs must quarantine")
	}
	n.active[1] = &segDownload{index: 1, conn: good}

	n.mu.Lock()
	got := n.pickConnLocked(0)
	n.mu.Unlock()
	if got != good {
		t.Fatal("pickConnLocked picked a quarantined conn over a healthy one")
	}

	delete(n.conns, good.id)
	n.mu.Lock()
	n.dropActiveLocked(1)
	got = n.pickConnLocked(0)
	n.mu.Unlock()
	if got != bad {
		t.Fatal("escape hatch failed: a quarantined sole source must still be picked")
	}
}
