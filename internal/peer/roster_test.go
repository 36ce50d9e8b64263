package peer

import (
	"math/rand"
	"testing"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/wire"
)

// checkNodeRoster reports every slot whose roster bits disagree with its
// conn, with the predicates a per-fill rebuild would apply: Hold is the
// remote's bitfield, Open is below maxConcurrentPerConn of our downloads
// on it, and, as of a fill, present is registered, unchoked and not
// closed. A slot no conn holds is absent. The node's two download
// records agree too: the pool fetches exactly the segments n.active
// holds.
func checkNodeRoster(n *Node, fail func(format string, args ...any)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.buildSourceSetLocked(n.now()) // presence is a per-fill fact
	var seated [maxConns]*conn
	for _, c := range n.conns {
		if c.src.Owner != c || c.src.ID < 0 || c.src.ID >= maxConns || seated[c.src.ID] != nil {
			fail("conn %q: owner %p, slot %d taken twice or out of range", c.id[0], c.src.Owner, c.src.ID)
			return
		}
		seated[c.src.ID] = c
	}
	if n.dl.Pool.InFlight != len(n.active) {
		fail("pool: %d in flight, %d active downloads", n.dl.Pool.InFlight, len(n.active))
	}
	for idx, fetching := range n.dl.Pool.Fetching {
		if active := n.active[idx] != nil; fetching != active {
			fail("seg %d: pool fetching %v, active %v", idx, fetching, active)
		}
	}
	loads := map[*conn]int{}
	for _, d := range n.active {
		loads[d.conn]++
	}
	for slot, c := range seated {
		_, open, present, whole := n.roster.Bits(slot, 0)
		if c == nil {
			if present {
				fail("free slot %d present", slot)
			}
			continue
		}
		if c.src.Uploads != loads[c] {
			fail("slot %d: load %d, %d downloads in flight on it", slot, c.src.Uploads, loads[c])
		}
		if want := c.src.Uploads < maxConcurrentPerConn; open != want {
			fail("slot %d: open %v at load %d", slot, open, c.src.Uploads)
		}
		if want := !c.choked && !c.closed.Load(); present != want || whole {
			fail("slot %d: present %v whole %v, choked %v closed %v", slot, present, whole, c.choked, c.closed.Load())
		}
		for idx, h := range c.src.Have {
			if hold, _, _, _ := n.roster.Bits(slot, idx); hold != h {
				fail("slot %d seg %d: hold %v, have %v", slot, idx, hold, h)
			}
		}
	}
}

// The node's roster is kept as events happen, not rebuilt per schedule,
// so every event that changes a fact must write it: a seeded random walk
// over conn arrival and departure (with slot reuse), BITFIELDs (a second
// one clears bits), HAVEs, chokes, unchokes, closes, launches and
// download ends, checked against the conns after every step.
func TestNodeRosterMatchesConns(t *testing.T) {
	m, _ := testSwarmData(t, 24*time.Second, 2*time.Second)
	n := offlineLeecher(t, m, nil)
	n.cfg.Policy = core.FixedPool{K: 6}
	segs := len(m.Segments)
	r := rand.New(rand.NewSource(42))
	var live []*conn
	next := byte(1)
	for step := 0; step < 600; step++ {
		var c *conn
		if len(live) > 0 {
			c = live[r.Intn(len(live))]
		}
		what := "open"
		switch op := r.Intn(10); {
		case c == nil || op == 0 && next < 255:
			free := 0
			for slotTaken(live, free) {
				free++
			}
			c = addFakeConn(t, n, next, make([]bool, segs), false)
			next++
			live = append(live, c)
			if c.src.ID != free {
				t.Fatalf("step %d: conn seated in slot %d, lowest free %d", step, c.src.ID, free)
			}
		case op <= 2:
			what = "bitfield"
			have := make([]bool, segs)
			for i := range have {
				have[i] = r.Intn(2) == 0
			}
			c.handle(&wire.Message{Type: wire.MsgBitfield, Bitfield: wire.EncodeBitfield(have)})
		case op == 3:
			what = "have"
			c.handle(&wire.Message{Type: wire.MsgHave, Index: uint32(r.Intn(segs))})
		case op == 4:
			what = "choke"
			c.handle(&wire.Message{Type: wire.MsgChoke})
		case op == 5:
			what = "unchoke"
			c.handle(&wire.Message{Type: wire.MsgUnchoke})
		case op == 6:
			what = "close"
			c.close()
		case op == 7:
			what = "drop conn"
			c.close()
			n.dropConn(c)
			for i := range live {
				if live[i] == c {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		case op == 8:
			what = "launch"
			n.schedule()
		default:
			what = "download end"
			n.mu.Lock()
			for idx := range n.active {
				n.dl.End(idx, n.now(), false)
				n.forgetLocked(idx)
				break
			}
			n.mu.Unlock()
		}
		checkNodeRoster(n, func(format string, args ...any) {
			t.Fatalf("step %d (%s on %q): "+format, append([]any{step, what, c.id[0]}, args...)...)
		})
	}
}

func slotTaken(live []*conn, slot int) bool {
	for _, c := range live {
		if c.src.ID == slot {
			return true
		}
	}
	return false
}

// A complete download outlives its conn: onPiece ends it after verifying,
// by which time the conn may be dropped and its slot given to another.
// That late end must return the load of the conn it ran on, not of the
// slot's new conn: each conn's source is its own.
func TestLateDropSparesTheSlotsNextConn(t *testing.T) {
	n := pickNode(t)
	a := holder(t, n, 'a')
	injectDownload(n, a, 0, 0)
	n.mu.Lock()
	n.dl.Deliver(0, n.dl.Flight(0).Size, n.now()) // every block in: onPiece is verifying it
	n.mu.Unlock()
	a.close()
	n.dropConn(a)
	b := holder(t, n, 'b')
	injectDownload(n, b, 1, 0)
	injectDownload(n, b, 2, 0)
	if b.src.ID != a.src.ID {
		t.Fatalf("b in slot %d, want a's freed slot %d", b.src.ID, a.src.ID)
	}

	n.mu.Lock()
	n.dl.End(0, n.now(), false)
	n.forgetLocked(0)
	_, open, _, _ := n.roster.Bits(b.src.ID, 0)
	n.mu.Unlock()
	if b.src.Uploads != 2 || open || a.src.Uploads != 0 {
		t.Errorf("after a's late end: b's load %d open %v, a's load %d; want 2, false, 0", b.src.Uploads, open, a.src.Uploads)
	}
}
