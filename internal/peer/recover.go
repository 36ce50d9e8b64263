package peer

import (
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/tracker"
)

// This file holds the node's failure-recovery plumbing: per-address dial
// backoff so dead peers are not hammered every watchdog tick, and the
// reconnect pass that keeps a node attached to the swarm through peer
// churn and tracker outages.

// redialBackoff is the wait after consecutive failed dials to one
// address: 500 ms after the first, doubling per failure up to 15 s.
var redialBackoff = fault.Backoff{Base: 500 * time.Millisecond, Cap: 15 * time.Second}

// dialBackoff tracks consecutive dial failures to one address.
type dialBackoff struct {
	failures int
	next     time.Duration // earliest permitted redial, on the node clock
}

// shouldDialLocked reports whether addr is outside its backoff window
// (n.mu held).
func (n *Node) shouldDialLocked(addr string, now time.Duration) bool {
	st := n.dialState[addr]
	return st == nil || now >= st.next
}

// noteDialLocked records a dial outcome: success clears the address's
// backoff state, failure doubles it (n.mu held).
func (n *Node) noteDialLocked(addr string, now time.Duration, err error) {
	if err == nil {
		delete(n.dialState, addr)
		return
	}
	st := n.dialState[addr]
	if st == nil {
		st = &dialBackoff{}
		n.dialState[addr] = st
	}
	st.failures++
	st.next = now + redialBackoff.Delay(0, 0, st.failures-1)
}

// connectKnownPeers dials every listed peer this node is not already
// connected to, skipping addresses still inside a dial-backoff window.
// At maxConns it dials nothing: startConn would refuse the conn after
// the handshake, and the refusal would back a healthy address off.
func (n *Node) connectKnownPeers(peers []tracker.PeerInfo) {
	for _, p := range peers {
		if n.hasConn(p.PeerID) {
			continue
		}
		n.mu.Lock()
		ok := !n.closed && len(n.conns) < maxConns && n.shouldDialLocked(p.Addr, n.now())
		n.mu.Unlock()
		if !ok {
			continue
		}
		err := n.Connect(p.Addr)
		n.mu.Lock()
		n.noteDialLocked(p.Addr, n.now(), err)
		n.mu.Unlock()
		if err != nil {
			n.nm.dialFails.Inc()
		}
	}
}

// reconnectPeers re-dials cached swarm members the node has lost its
// connection to (watchdog tick). The cache survives tracker outages, so
// a node keeps healing its connection set even while the tracker is
// down; backoff keeps the retry cost of a genuinely dead peer bounded.
func (n *Node) reconnectPeers() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	cached := append([]tracker.PeerInfo(nil), n.cachedPeers...)
	n.mu.Unlock()
	n.connectKnownPeers(cached)
}
