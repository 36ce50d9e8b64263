package peer

import (
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
	"p2psplice/internal/wire"
)

// segDownload tracks one in-flight segment transfer. started and progress
// are on the playback clock (n.now), like every other time the scheduler
// reads.
type segDownload struct {
	index     int
	size      int
	conn      *conn
	buf       []byte // becomes the stored segment once verified
	blocks    []bool // received flags
	remaining int
	started   time.Duration
	progress  time.Duration // last block arrival (watchdog)
}

// complete reports that every block has arrived (n.mu held): onPiece is
// verifying and storing the segment, and ends the download when done.
func (d *segDownload) complete() bool { return d.remaining == 0 }

// schedule tops up the download pool: the real stack's driver of
// internal/core's scheduler, as simpeer.fill is the emulation's. Called on
// join, on every have/bitfield/piece/unchoke event and by the watchdog, it
// gathers the node's facts under n.mu, then records a fill that had room and
// sends its block requests unlocked.
func (n *Node) schedule() {
	if n.seeder {
		return
	}
	var launches []*segDownload
	var f trace.PoolFacts // zero unless a segment is wanted

	n.mu.Lock()
	first, now := n.pool.FirstWanted(), n.now()
	if !n.closed && first >= 0 {
		// Eq. 1's live inputs: B from the aggregate meter (the clip rate
		// before its first sample), T the playback buffer, W the size of first.
		f = trace.PoolFacts{
			Bandwidth: n.est.Estimate(),
			Buffered:  n.play.BufferedAhead(now),
			SegBytes:  n.manifest.Segments[first].Bytes,
			InFlight:  n.pool.InFlight,
		}
		if f.Bandwidth <= 0 {
			f.Bandwidth = n.manifest.Video.BytesPerSecond
		}
		f.Target = n.cfg.Policy.PoolSize(f.Bandwidth, f.Buffered, f.SegBytes)
		n.qoe.PoolK.Observe(int64(f.Target))
		if f.InFlight < f.Target {
			n.buildSourceSetLocked(now)
			// The node cannot see a swarm-wide availability frontier, so
			// the scan never cuts early.
			f.Blocked = n.set.Fill(&n.pool, first, f.Target, len(n.pool.Have)-1, func(idx int, src *core.Source, _ bool) {
				if src != nil {
					launches = append(launches, n.launchLocked(src.Owner.(*conn), idx, now))
				}
			})
			f.Launched = len(launches)
		}
	}
	n.nm.activeDowns.Set(int64(len(n.active)))
	n.mu.Unlock()

	if f.InFlight < f.Target {
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
// held): every connection that is open and has not choked us, with its
// reputation as of now, full at maxConcurrentPerConn of our downloads.
// Each Add writes the conn's bitfield into the set's own roster, O(clip
// segments) per conn, since a node has no roster kept across schedules. A
// conn closed by a verify failure stays in n.conns until its asynchronous
// dropConn; skipping it keeps the immediate reschedule off the dead conn.
func (n *Node) buildSourceSetLocked(now time.Duration) {
	n.set.Reset(nil, maxConcurrentPerConn)
	for _, c := range n.conns {
		if c.choked || c.closed.Load() {
			continue
		}
		c.src.Score = n.rep.Score(c.id, now)
		c.src.Quarantined = n.rep.Quarantined(c.id, now)
		n.set.Add(&c.src)
	}
}

// launchLocked registers the download of segment idx from c (n.mu held);
// the scheduler enters it into the pool and c's load.
func (n *Node) launchLocked(c *conn, idx int, now time.Duration) *segDownload {
	size := int(n.manifest.Segments[idx].Bytes)
	d := &segDownload{
		index:    idx,
		size:     size,
		conn:     c,
		buf:      make([]byte, size),
		blocks:   make([]bool, wire.BlockCount(int64(size), wire.DefaultBlockLen)),
		started:  now,
		progress: now,
	}
	d.remaining = len(d.blocks)
	n.active[idx] = d
	n.est.Start(now)
	return d
}

// dropActiveLocked removes segment idx from the download pool (n.mu
// held): the one place the pool shrinks. It syncs the player first, so a
// stall this call reveals is attributed with the download still in the
// pool (see trace.StallFacts).
func (n *Node) dropActiveLocked(idx int) {
	n.play.Position(n.now())
	n.pool.Drop(idx, &n.active[idx].conn.src)
	delete(n.active, idx)
}

// requestAllBlocks pipelines every block request for a segment, in one
// write.
func (n *Node) requestAllBlocks(d *segDownload) {
	if err := d.conn.sendRequests(d.index, d.size); err != nil {
		d.conn.close()
	}
}

// onPiece integrates an arriving block. The block that completes a
// segment ends its transfer; the download itself stays in the pool, still
// Fetching, until the segment is verified and stored (or rejected), so no
// schedule in between launches it again.
func (n *Node) onPiece(c *conn, m *wire.Message) {
	idx := int(m.Index)
	var elapsed time.Duration

	n.mu.Lock()
	d, ok := n.active[idx]
	if !ok || d.conn != c {
		n.mu.Unlock()
		return // stale block from an abandoned download
	}
	// A block is DefaultBlockLen bytes, the segment's last one the rest
	// (the wire admits no empty PIECE, so none lies past the end).
	off := int(m.Offset)
	if off%wire.DefaultBlockLen != 0 || len(m.Data) != min(wire.DefaultBlockLen, d.size-off) {
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
	d.remaining--
	copy(d.buf[off:], m.Data)
	d.progress = n.now()
	n.stats.DownloadedBytes += int64(len(m.Data))
	n.est.Deliver(int64(len(m.Data)))
	n.nm.blocksRx.Inc()
	n.nm.bytesRx.Add(int64(len(m.Data)))
	done := d.complete()
	if done {
		elapsed = d.progress - d.started
		n.est.Finish(d.progress)
	}
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
		n.dropActiveLocked(idx)
		n.stats.VerifyFailures++
		n.mu.Unlock()
		n.nm.verifyFails.Inc()
		n.emit(trace.CatPool, trace.EvVerifyFail, idx)
		// Score the offender across reconnects: the peer ID, not the conn,
		// is the stable identity a repeat corrupter keeps.
		n.observePeer(c.id, reputation.ObsVerifyFail)
		c.close()
		n.schedule()
		return
	}
	if n.store.Put(idx, d.buf) != nil {
		// The segment is wanted again once out of the pool: without an
		// immediate reschedule it would sit undownloaded until some
		// unrelated event (or the watchdog) next ran the scheduler.
		n.mu.Lock()
		n.dropActiveLocked(idx)
		n.stats.StoreFailures++
		n.mu.Unlock()
		n.nm.storeFails.Inc()
		n.emit(trace.CatPool, trace.EvStoreFail, idx)
		n.schedule()
		return
	}
	// Stored: the download leaves the pool as the segment becomes held, in
	// one step, so no schedule sees it as neither.
	n.mu.Lock()
	n.dropActiveLocked(idx)
	n.pool.Store(idx)
	n.mu.Unlock()
	// A verified completion earns the server credit, unless it crawled in
	// below the slow-serve floor.
	n.observePeer(c.id, n.rep.Config().ServeObservation(int64(d.size), elapsed))
	n.nm.segsDone.Inc()
	n.qoe.Segment(n.now(), -1, idx, int64(d.size), elapsed)
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
// timeout so the watchdog can retry them on another connection. A complete
// download being verified is onPiece's to end.
func (n *Node) expireStalled() {
	var stalled []*segDownload
	n.mu.Lock()
	now := n.now()
	for idx, d := range n.active {
		if !d.complete() && now-d.progress > n.cfg.DownloadTimeout {
			n.dropActiveLocked(idx)
			n.est.Finish(now)
			n.stats.ExpiredDownloads++
			stalled = append(stalled, d)
		}
	}
	n.mu.Unlock()
	for _, d := range stalled {
		n.nm.expired.Inc()
		n.emit(trace.CatPool, trace.EvTimeout, d.index)
		// Not a single block arrived: the remote advertised the segment and
		// accepted the requests but served nothing — a stale HAVE, which
		// scores harder than a transfer that died partway.
		obs := reputation.ObsTimeout
		if d.remaining == len(d.blocks) {
			obs = reputation.ObsStaleHave
		}
		n.observePeer(d.conn.id, obs)
		d.conn.close()
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
	if obs != reputation.ObsSuccess {
		n.nm.repPenalties.Inc()
	}
	if up.Quarantined {
		n.nm.quarantines.Inc()
	}
}
