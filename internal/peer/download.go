package peer

import (
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
	"p2psplice/internal/wire"
)

// segDownload is the socket side of one in-flight segment download; its
// Flight in n.dl holds the rest.
type segDownload struct {
	index  int
	conn   *conn
	buf    []byte // becomes the stored segment once verified
	blocks []bool // received flags
}

// schedule tops up the download pool: the real stack's driver of
// internal/core's scheduler, as simpeer.fill is the emulation's. Called on
// join, on every have/bitfield/piece/unchoke event and by the watchdog, it
// gathers the node's facts under n.mu, then records the decision and sends
// its block requests unlocked.
func (n *Node) schedule() {
	if n.seeder {
		return
	}
	var launches []*segDownload
	var f trace.PoolFacts

	n.mu.Lock()
	first, now := n.dl.Pool.FirstWanted(), n.now()
	decided := !n.closed && first >= 0
	if decided {
		// Eq. 1's live inputs: B from the aggregate meter, T the playback
		// buffer. The node cannot see a swarm-wide availability frontier,
		// so the scan never cuts early.
		f = n.dl.Fill(n.dl.Bandwidth(), n.play.BufferedAhead(now), first, len(n.dl.Pool.Have)-1, func() *core.SourceSet {
			n.buildSourceSetLocked(now)
			return &n.set
		}, func(idx int, src *core.Source, _ bool) {
			if src != nil {
				launches = append(launches, n.launchLocked(src.Owner.(*conn), idx, now))
			}
		})
	}
	n.nm.activeDowns.Set(int64(len(n.active)))
	n.mu.Unlock()

	if decided {
		n.qoe.PoolDecision(now, -1, first, f)
	}
	n.nm.schedCalls.Inc()
	n.nm.launches.Add(int64(len(launches)))
	for _, d := range launches {
		n.requestAllBlocks(d)
	}
}

// maxConcurrentPerConn bounds simultaneous segment downloads from one
// remote peer.
const maxConcurrentPerConn = 2

// buildSourceSetLocked gathers the socket's facts for a fill at now (n.mu
// held) in O(conns + words): each conn's reputation as of now and its
// presence, open and unchoked, marked per fill since close sets c.closed
// without n.mu (a conn a verify failure closed stays in n.conns until its
// dropConn). The roster's Hold rows and Open bits, full at
// maxConcurrentPerConn of our downloads, are kept as events happen.
func (n *Node) buildSourceSetLocked(now time.Duration) {
	for _, c := range n.conns {
		c.src.Score = n.rep.Score(c.id, now)
		c.src.Quarantined = n.rep.Quarantined(c.id, now)
		n.roster.Mark(c.src.ID, !c.choked && !c.closed.Load(), false)
	}
	n.set.From(n.roster, -1, nil)
}

// launchLocked registers the download of segment idx from c (n.mu held);
// the scheduler enters it into the pool and c's load.
func (n *Node) launchLocked(c *conn, idx int, now time.Duration) *segDownload {
	size := n.manifest.Segments[idx].Bytes
	d := &segDownload{
		index:  idx,
		conn:   c,
		buf:    make([]byte, size),
		blocks: make([]bool, wire.BlockCount(size, wire.DefaultBlockLen)),
	}
	n.active[idx] = d
	n.dl.Launch(idx, &c.src, now)
	return d
}

// forgetLocked drops the socket side of segment idx's download, which is
// ending (n.mu held).
func (n *Node) forgetLocked(idx int) { delete(n.active, idx) }

// requestAllBlocks pipelines every block request for a segment, in one
// write.
func (n *Node) requestAllBlocks(d *segDownload) {
	if err := d.conn.sendRequests(d.index, len(d.buf)); err != nil {
		d.conn.close()
	}
}

// onPiece integrates an arriving block. The block that completes a
// segment ends its transfer; the download itself stays in the pool, still
// Fetching, until the segment is verified and stored (or rejected), so no
// schedule in between launches it again.
func (n *Node) onPiece(c *conn, m *wire.Message) {
	idx := int(m.Index)

	n.mu.Lock()
	d, ok := n.active[idx]
	if !ok || d.conn != c {
		n.mu.Unlock()
		return // stale block from an abandoned download
	}
	// A block is DefaultBlockLen bytes, the segment's last one the rest
	// (the wire admits no empty PIECE, so none lies past the end).
	off := int(m.Offset)
	if off%wire.DefaultBlockLen != 0 || len(m.Data) != min(wire.DefaultBlockLen, len(d.buf)-off) {
		n.mu.Unlock()
		c.close()
		return
	}
	block := off / wire.DefaultBlockLen
	if d.blocks[block] {
		// A repeat (the KindDuplicate fault) counts once, and cannot
		// complete a segment already being verified a second time.
		n.mu.Unlock()
		return
	}
	d.blocks[block] = true
	copy(d.buf[off:], m.Data)
	n.dl.Deliver(idx, int64(len(m.Data)), n.now())
	n.stats.DownloadedBytes += int64(len(m.Data))
	n.nm.blocksRx.Inc()
	n.nm.bytesRx.Add(int64(len(m.Data)))
	done := n.dl.Flight(idx).Done()
	n.mu.Unlock()
	if !done {
		return
	}

	// No block writes d.buf any more: it is verified unlocked and then
	// handed to the store as the segment itself.
	if n.manifest.VerifySegment(idx, d.buf) != nil {
		// The remote served data that does not match the manifest: drop it
		// and re-download from someone else.
		n.mu.Lock()
		f := n.dl.End(idx, n.now(), false)
		n.forgetLocked(idx)
		n.stats.VerifyFailures++
		n.mu.Unlock()
		n.nm.verifyFails.Inc()
		n.emit(trace.CatPool, trace.EvVerifyFail, idx)
		// Score the offender across reconnects: the peer ID, not the conn,
		// is the stable identity a repeat corrupter keeps.
		n.observePeer(c.id, f.Charge(core.Rejected, n.rep.Config()))
		c.close()
		n.schedule()
		return
	}
	if n.store.Put(idx, d.buf) != nil {
		// The segment is wanted again once out of the pool: without an
		// immediate reschedule it would sit undownloaded until some
		// unrelated event (or the watchdog) next ran the scheduler.
		n.mu.Lock()
		n.dl.End(idx, n.now(), false)
		n.forgetLocked(idx)
		n.stats.StoreFailures++
		n.mu.Unlock()
		n.nm.storeFails.Inc()
		n.emit(trace.CatPool, trace.EvStoreFail, idx)
		n.schedule()
		return
	}
	n.mu.Lock()
	f := n.dl.End(idx, n.now(), true)
	n.forgetLocked(idx)
	n.mu.Unlock()
	// A verified completion earns the server credit, unless it crawled in
	// below the slow-serve floor.
	n.observePeer(c.id, f.Charge(core.Verified, n.rep.Config()))
	n.nm.segsDone.Inc()
	n.qoe.Segment(n.now(), -1, idx, f.Size, f.Last-f.Started)
	n.mu.Lock()
	// Errors are impossible: idx was validated against the store size.
	_ = n.play.OnSegmentComplete(idx, n.now())
	complete := n.store.Complete()
	n.mu.Unlock()

	n.broadcastHave(idx)
	if complete {
		n.completeOnce.Do(func() { close(n.completeC) })
	}
	n.schedule()
}

// expireStalled abandons downloads that have made no progress within the
// timeout so the watchdog can retry them on another connection. A
// download whose last byte came is being verified: onPiece ends it.
func (n *Node) expireStalled() {
	var stalled []core.Flight
	var segs []int
	n.mu.Lock()
	now := n.now()
	for idx := range n.active {
		if f := n.dl.Flight(idx); !f.Done() && now-f.Last > n.cfg.DownloadTimeout {
			stalled = append(stalled, n.dl.End(idx, now, false))
			segs = append(segs, idx)
			n.forgetLocked(idx)
			n.stats.ExpiredDownloads++
		}
	}
	n.mu.Unlock()
	for i, f := range stalled {
		n.nm.expired.Inc()
		n.emit(trace.CatPool, trace.EvTimeout, segs[i])
		c := f.Src.Owner.(*conn)
		n.observePeer(c.id, f.Charge(core.Expired, n.rep.Config()))
		c.close()
	}
	if len(stalled) > 0 {
		// close() on an already-dead conn is a no-op (its dropConn ran long
		// ago), so the expired segments would otherwise stay unscheduled
		// until something else happened to run the scheduler.
		n.schedule()
	}
}

// observePeer records one reputation observation about a remote peer.
// The recorder traces the resulting penalty, quarantine or probation
// clearance under the wire id: the node's own trace stream has no
// per-event peer column (Event.Peer is the emulation's).
func (n *Node) observePeer(id wire.PeerID, obs reputation.Observation) {
	at := n.now()
	n.mu.Lock()
	up := n.rep.Observe(id, at, obs)
	n.mu.Unlock()
	n.qoe.Reputation(at, -1, id.String(), obs, up)
}
