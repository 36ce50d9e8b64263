package peer

import (
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/wire"
)

// conn is one established peer connection.
type conn struct {
	node   *Node
	id     wire.PeerID
	raw    net.Conn
	wmu    sync.Mutex   // serializes writes; never taken under node.mu
	wr     *wire.Writer // reusable encode buffer and PIECE queue, guarded by wmu
	closed atomic.Bool  // set by close

	// src is the remote as the scheduler sees it: ID its roster slot, Have
	// the remote's bitfield, Uploads our own downloads in flight on it (all
	// of its load a node can see), Score and Quarantined as of the last
	// schedule. It is the conn's own, not its slot's, so a download that
	// ends after a drop cannot touch the slot's next conn.
	src core.Source // guarded by node.mu

	// Upload-slot state: serving marks an occupied unchoke slot, waiting
	// marks membership in the choked-waiters queue, and lastServe drives
	// idle slot release.
	serving   bool          // guarded by node.mu
	waiting   bool          // guarded by node.mu
	lastServe time.Duration // node clock; guarded by node.mu

	// choked records that the REMOTE choked us: it will not answer requests
	// until it unchokes.
	choked bool // guarded by node.mu
}

// maxConns bounds a node's live connections. startConn checks it under
// n.mu, so concurrent handshakes cannot overshoot it.
const maxConns = 64

// startConn registers the connection, exchanges bitfields, and runs the
// reader until the connection dies. Past maxConns it refuses the
// connection and closes it.
func (n *Node) startConn(raw net.Conn, id wire.PeerID) error {
	c := &conn{
		node: n,
		id:   id,
		raw:  raw,
		wr:   wire.NewWriter(raw),
		src:  core.Source{Have: make([]bool, n.store.Segments())},
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		raw.Close()
		return fmt.Errorf("peer: node closed")
	}
	if _, dup := n.conns[id]; dup || id == n.peerID {
		n.mu.Unlock()
		raw.Close()
		return nil // already connected (simultaneous dial) or self
	}
	if len(n.conns) >= maxConns {
		n.mu.Unlock()
		raw.Close()
		return fmt.Errorf("peer: at the %d-connection limit", maxConns)
	}
	n.seatLocked(c)
	n.mu.Unlock()

	if err := c.send(&wire.Message{Type: wire.MsgBitfield, Bitfield: wire.EncodeBitfield(n.store.Bitfield())}); err != nil {
		c.close()
		return err
	}

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		c.readLoop()
		c.close()
		n.dropConn(c)
	}()
	return nil
}

// seatLocked adds c to the connection set, its source in the lowest free
// roster slot; unseatLocked takes it out, if it is still there, and frees
// the slot (n.mu held).
func (n *Node) seatLocked(c *conn) {
	var used uint64
	for _, o := range n.conns {
		used |= 1 << o.src.ID
	}
	c.src.Owner, c.src.ID = c, bits.TrailingZeros64(^used)
	n.conns[c.id] = c
	n.roster.Seat(c.src.ID, &c.src)
}

func (n *Node) unseatLocked(c *conn) {
	if n.conns[c.id] == c {
		delete(n.conns, c.id)
		n.roster.Mark(c.src.ID, false, false)
	}
}

// dropConn removes the connection and reschedules its downloads.
func (n *Node) dropConn(c *conn) {
	var unchoke *conn
	n.mu.Lock()
	n.unseatLocked(c)
	unchoke = n.releaseSlotLocked(c)
	if c.waiting {
		c.waiting = false
		for i, w := range n.chokedWaiters {
			if w == c {
				n.chokedWaiters = append(n.chokedWaiters[:i], n.chokedWaiters[i+1:]...)
				break
			}
		}
	}
	orphaned := n.dl.Lose(&c.src, n.now(), n.forgetLocked)
	n.mu.Unlock()
	if unchoke != nil {
		if err := unchoke.send(&wire.Message{Type: wire.MsgUnchoke}); err != nil {
			unchoke.close()
		}
	}
	if orphaned > 0 {
		n.schedule()
	}
}

// send writes one message, after any queued PIECE frames, serialized
// against concurrent senders. The shared Writer keeps the steady-state
// send path allocation-free.
func (c *conn) send(m *wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.bindWrite(); err != nil {
		return err
	}
	if err := c.wr.WriteMsg(m); err != nil {
		return err
	}
	return c.flushLocked()
}

// sendRequests writes the wire.DefaultBlockLen block requests for all size
// bytes of segment idx as one write, serialized like send.
func (c *conn) sendRequests(idx, size int) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.bindWrite(); err != nil {
		return err
	}
	if err := c.wr.WriteRequests(uint32(idx), size, wire.DefaultBlockLen); err != nil {
		return err
	}
	return c.flushLocked()
}

// flush writes the queued PIECE frames, serialized like send.
func (c *conn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

// flushLocked writes the queued PIECE frames in one vectored write under
// one deadline (c.wmu held), then charges the node's upload counter with
// the payload bytes written since the last flush: a send writes the
// queue ahead of its own frame.
func (c *conn) flushLocked() error {
	if c.wr.Queued() > 0 {
		if err := c.bindWrite(); err != nil {
			return err
		}
	}
	sent, err := c.wr.Flush()
	if sent > 0 {
		c.node.mu.Lock()
		c.node.stats.UploadedBytes += int64(sent)
		c.node.mu.Unlock()
	}
	return err
}

// bindWrite gives the next write (c.wmu held) DownloadTimeout to finish.
// A remote that stops reading would otherwise block it for good, and
// with it every sender queued on c.wmu: a broadcastHave on another
// conn's reader, which then never reads again.
func (c *conn) bindWrite() error {
	return c.raw.SetWriteDeadline(time.Now().Add(c.node.cfg.DownloadTimeout))
}

// close shuts the underlying conn; safe to call multiple times.
func (c *conn) close() {
	if !c.closed.Swap(true) {
		_ = c.raw.Close()
	}
}

// readLoop processes inbound messages until the connection fails or the
// remote breaks the protocol. Its Reader is the only one on c.raw after
// the handshake: it reads ahead, so a second reader would lose frames.
// The PIECE frames serveBlock queues go out whenever the Reader runs dry,
// so a REQUEST burst is answered in a few vectored writes. The Reader and
// Message are reused across iterations, so the steady-state receive path
// is allocation-free.
func (c *conn) readLoop() {
	rd := wire.NewReader(c.raw)
	var msg wire.Message
	for (rd.HasFrame() || c.flush() == nil) && rd.ReadInto(&msg) == nil && c.handle(&msg) {
	}
}

// handle acts on one inbound message and reports whether the remote kept
// to the protocol. m's payload aliases the Reader's buffer until the next
// ReadInto; onPiece copies it, the bitfield is decoded into a fresh slice.
// A holding goes into c.src.Have and c's Hold row together.
func (c *conn) handle(m *wire.Message) bool {
	n := c.node
	switch m.Type {
	case wire.MsgBitfield:
		have, err := wire.DecodeBitfield(m.Bitfield, n.store.Segments())
		if err != nil {
			return false
		}
		n.mu.Lock()
		for idx, h := range have {
			c.src.Have[idx] = h
			n.roster.SetHold(c.src.ID, idx, h)
		}
		n.mu.Unlock()
		n.schedule()
	case wire.MsgHave:
		idx := int(m.Index)
		if idx >= n.store.Segments() {
			return false
		}
		n.mu.Lock()
		c.src.Have[idx] = true
		n.roster.SetHold(c.src.ID, idx, true)
		n.mu.Unlock()
		n.schedule()
	case wire.MsgRequest:
		return c.serveBlock(m) == nil
	case wire.MsgPiece:
		n.onPiece(c, m)
	case wire.MsgChoke:
		n.abandonDownloadsOn(c)
	case wire.MsgUnchoke:
		n.mu.Lock()
		c.choked = false
		n.mu.Unlock()
		n.schedule()
	case wire.MsgCancel, wire.MsgKeepAlive,
		wire.MsgInterested, wire.MsgNotInterested:
		// Accepted for protocol compatibility.
	default:
		return false
	}
	return true
}

// serveBlock answers a block request from the store, subject to the
// node's upload slots: a requester that cannot get a slot is choked and
// retries after MsgUnchoke. The PIECE is queued, its payload a view of
// the store, and written by the next flush; a full queue is flushed at
// once.
func (c *conn) serveBlock(m *wire.Message) error {
	n := c.node
	n.mu.Lock()
	if !c.serving {
		if n.servingConns < n.cfg.MaxUploadSlots {
			c.serving = true
			n.servingConns++
		} else {
			if !c.waiting {
				c.waiting = true
				n.chokedWaiters = append(n.chokedWaiters, c)
			}
			n.mu.Unlock()
			return c.send(&wire.Message{Type: wire.MsgChoke})
		}
	}
	c.lastServe = n.now()
	dup := n.serveDuplicate
	n.mu.Unlock()

	data, err := n.store.Block(int(m.Index), int(m.Offset), int(m.Length))
	if err != nil {
		// Requests for data we do not hold indicate a confused or hostile
		// peer; drop the connection rather than serve garbage.
		return err
	}
	sends := 1
	if dup {
		// Duplicated-delivery fault window: every PIECE goes out twice.
		// The receiver's block ledger must count it once.
		sends = 2
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for i := 0; i < sends; i++ {
		if err := c.wr.QueuePiece(m.Index, m.Offset, data); err != nil {
			return err
		}
		if c.wr.Queued() == wire.MaxQueued {
			if err := c.flushLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// releaseSlotLocked frees c's upload slot (node.mu held) and returns the
// waiter to unchoke, if any.
func (n *Node) releaseSlotLocked(c *conn) *conn {
	if !c.serving {
		return nil
	}
	c.serving = false
	n.servingConns--
	for len(n.chokedWaiters) > 0 {
		next := n.chokedWaiters[0]
		n.chokedWaiters = n.chokedWaiters[1:]
		next.waiting = false
		if n.conns[next.id] == next {
			next.serving = true
			next.lastServe = n.now()
			n.servingConns++
			return next
		}
	}
	return nil
}

// reapIdleSlots releases slots whose holders have gone quiet and unchokes
// waiters. Driven by the node watchdog.
func (n *Node) reapIdleSlots() {
	const idleRelease = 2 * time.Second
	var unchoke []*conn
	n.mu.Lock()
	for _, c := range n.conns {
		if c.serving && n.now()-c.lastServe > idleRelease {
			if next := n.releaseSlotLocked(c); next != nil {
				unchoke = append(unchoke, next)
			}
		}
	}
	n.mu.Unlock()
	for _, c := range unchoke {
		if err := c.send(&wire.Message{Type: wire.MsgUnchoke}); err != nil {
			c.close()
		}
	}
}

// abandonDownloadsOn records that c's remote just choked us and
// reschedules the downloads assigned to it.
func (n *Node) abandonDownloadsOn(c *conn) {
	n.mu.Lock()
	c.choked = true
	orphaned := n.dl.Lose(&c.src, n.now(), n.forgetLocked)
	n.mu.Unlock()
	if orphaned > 0 {
		n.schedule()
	}
}

// broadcastHave tells every peer we now hold segment idx.
func (n *Node) broadcastHave(idx int) {
	n.mu.Lock()
	conns := make([]*conn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		if err := c.send(&wire.Message{Type: wire.MsgHave, Index: uint32(idx)}); err != nil {
			c.close()
		}
	}
}
