package peer

import (
	"time"

	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
	"p2psplice/internal/wire"
)

// segDownload tracks one in-flight segment transfer.
type segDownload struct {
	index     int
	size      int
	conn      *conn
	buf       []byte
	blocks    []bool // received flags
	remaining int
	started   time.Time
	progress  time.Time // last block arrival (watchdog)
}

// schedule tops up the download pool according to the policy. It is the
// real-stack twin of the emulation's fill: called on join, on every
// have/bitfield/piece event, and from the watchdog.
func (n *Node) schedule() {
	if n.seeder {
		return
	}
	type request struct {
		c   *conn
		idx int
	}
	var launches []request
	var target, activeAfter int

	n.mu.Lock()
	if !n.closed && !n.store.Complete() {
		target = n.poolTargetLocked()
		n.qoe.PoolK.Observe(int64(target))
		// Fill the pool with the first `target` missing segments some
		// connected peer can serve. Segments already in flight or currently
		// unservable (choked or absent sources) are skipped without
		// consuming pool budget: an earlier version capped the scan at
		// `target` considered segments, so a choked segment at the front of
		// the window could exhaust the budget and leave the pool empty with
		// servable segments just behind it — a scheduler-induced stall. (It
		// also counted each launch twice, in n.active and in launches,
		// halving the effective pool.)
		for idx := 0; idx < n.store.Segments() && len(n.active) < target; idx++ {
			if n.store.Have(idx) {
				continue
			}
			if _, inFlight := n.active[idx]; inFlight {
				continue
			}
			if c := n.pickConnLocked(idx); c != nil {
				size := int(n.manifest.Segments[idx].Bytes)
				d := &segDownload{
					index:    idx,
					size:     size,
					conn:     c,
					buf:      make([]byte, size),
					blocks:   make([]bool, wire.BlockCount(int64(size), n.cfg.BlockLen)),
					started:  time.Now(),
					progress: time.Now(),
				}
				d.remaining = len(d.blocks)
				n.active[idx] = d
				n.est.Start(n.now())
				launches = append(launches, request{c: c, idx: idx})
			}
		}
		activeAfter = len(n.active)
	}
	n.mu.Unlock()

	n.nm.schedCalls.Inc()
	n.nm.launches.Add(int64(len(launches)))
	n.nm.activeDowns.Set(int64(activeAfter))
	if len(launches) > 0 {
		n.emitAt(n.now(), trace.CatSched, trace.EvSchedule, -1,
			trace.Int64("target", int64(target)),
			trace.Int64("launched", int64(len(launches))),
			trace.Int64("active", int64(activeAfter)))
	} else if target > 0 && activeAfter == 0 {
		n.emitAt(n.now(), trace.CatSched, trace.EvScheduleIdle, -1,
			trace.Int64("target", int64(target)))
	}

	for _, l := range launches {
		n.requestAllBlocks(l.c, l.idx)
	}
}

// poolTargetLocked computes Equation 1's k with the node's live inputs:
// B from the EWMA estimator (falling back to the clip rate before the first
// sample), T from the playback buffer, W from the next missing segment.
func (n *Node) poolTargetLocked() int {
	bandwidth := n.est.Estimate()
	if bandwidth <= 0 {
		bandwidth = n.manifest.Video.BytesPerSecond
	}
	var buffered time.Duration
	if n.play != nil {
		buffered = n.play.BufferedAhead(n.now())
	}
	segBytes := int64(1)
	for idx := 0; idx < n.store.Segments(); idx++ {
		if !n.store.Have(idx) {
			segBytes = n.manifest.Segments[idx].Bytes
			break
		}
	}
	return n.cfg.Policy.PoolSize(bandwidth, buffered, segBytes)
}

// pickConnLocked returns the connection to fetch idx from: among live,
// non-quarantined conns whose remote has the segment, the one with the
// lowest decayed reputation score, ties broken by least busy. When every
// candidate is quarantined a second pass re-admits them — the sole-source
// escape hatch: a swarm whose remaining sources all misbehaved must still
// drain rather than strand the segment. Closed conns are skipped — a
// verify failure closes the serving conn, and until its asynchronous
// dropConn runs the conn is still in n.conns, so without the check the
// immediate reschedule re-picked the dead conn and the segment stranded
// until the drop or the watchdog.
func (n *Node) pickConnLocked(idx int) *conn {
	busy := make(map[*conn]int)
	for _, d := range n.active {
		busy[d.conn]++
	}
	if c := n.pickConnPassLocked(idx, busy, false); c != nil {
		return c
	}
	return n.pickConnPassLocked(idx, busy, true)
}

// pickConnPassLocked runs one selection pass over the connection set
// (n.mu held); allowQuarantined opens the escape hatch.
func (n *Node) pickConnPassLocked(idx int, busy map[*conn]int, allowQuarantined bool) *conn {
	now := n.now()
	var best *conn
	bestBusy := 0
	bestScore := 0.0
	for _, c := range n.conns {
		if c.isClosed() || !c.remoteHas(idx) || c.remoteChoked() {
			continue
		}
		if busy[c] >= n.cfg.MaxConcurrentPerConn {
			continue
		}
		if !allowQuarantined && n.rep.Quarantined(c.id, now) {
			continue
		}
		score := n.rep.Score(c.id, now)
		if best == nil || score < bestScore ||
			(score == bestScore && busy[c] < bestBusy) {
			best, bestBusy, bestScore = c, busy[c], score
		}
	}
	return best
}

// dropActiveLocked removes segment idx from the download pool (n.mu
// held): the one place the pool shrinks. It syncs the player first, so a
// stall this call reveals is attributed with the download still in the
// pool (see trace.StallFacts).
func (n *Node) dropActiveLocked(idx int) {
	if n.play != nil {
		n.play.Position(n.now())
	}
	delete(n.active, idx)
}

// requestAllBlocks pipelines every block request for a segment.
func (n *Node) requestAllBlocks(c *conn, idx int) {
	size := int(n.manifest.Segments[idx].Bytes)
	for off := 0; off < size; off += n.cfg.BlockLen {
		length := n.cfg.BlockLen
		if off+length > size {
			length = size - off
		}
		if err := c.send(&wire.Message{
			Type:   wire.MsgRequest,
			Index:  uint32(idx),
			Offset: uint32(off),
			Length: uint32(length),
		}); err != nil {
			c.close()
			return
		}
	}
}

// onPiece integrates an arriving block.
func (n *Node) onPiece(c *conn, m *wire.Message) {
	idx := int(m.Index)
	var completed []byte
	var elapsed time.Duration

	n.mu.Lock()
	d, ok := n.active[idx]
	if !ok || d.conn != c {
		n.mu.Unlock()
		return // stale block from an abandoned download
	}
	off := int(m.Offset)
	if off%n.cfg.BlockLen != 0 || off+len(m.Data) > d.size {
		n.mu.Unlock()
		n.cfg.Logf("peer %s: bogus block seg=%d off=%d len=%d", n.peerID, idx, off, len(m.Data))
		c.close()
		return
	}
	block := off / n.cfg.BlockLen
	if !d.blocks[block] {
		d.blocks[block] = true
		d.remaining--
		copy(d.buf[off:], m.Data)
		d.progress = time.Now()
		n.stats.DownloadedBytes += int64(len(m.Data))
		n.est.Deliver(int64(len(m.Data)))
		n.nm.blocksRx.Inc()
		n.nm.bytesRx.Add(int64(len(m.Data)))
	}
	if d.remaining == 0 {
		n.dropActiveLocked(idx)
		completed = d.buf
		elapsed = time.Since(d.started)
		n.est.Finish(n.now())
	}
	n.mu.Unlock()

	if completed == nil {
		return
	}
	if err := n.manifest.VerifySegment(idx, completed); err != nil {
		// The remote served data that does not match the manifest: drop it
		// and re-download from someone else.
		n.cfg.Logf("peer %s: segment %d failed verification from %s: %v", n.peerID, idx, c.id, err)
		n.mu.Lock()
		n.stats.VerifyFailures++
		n.mu.Unlock()
		n.nm.verifyFails.Inc()
		n.emitAt(n.now(), trace.CatSched, trace.EvVerifyFail, idx)
		// Score the offender across reconnects: the peer ID, not the conn,
		// is the stable identity a repeat corrupter keeps.
		n.observePeer(c.id, reputation.ObsVerifyFail)
		c.close()
		n.schedule()
		return
	}
	if err := n.store.Put(idx, completed); err != nil {
		// The segment is already out of n.active, so without an immediate
		// reschedule it would sit undownloaded until some unrelated event
		// (or the watchdog) next ran the scheduler.
		n.cfg.Logf("peer %s: store segment %d: %v", n.peerID, idx, err)
		n.mu.Lock()
		n.stats.StoreFailures++
		n.mu.Unlock()
		n.nm.storeFails.Inc()
		n.emitAt(n.now(), trace.CatSched, trace.EvStoreFail, idx)
		n.schedule()
		return
	}
	// A verified completion earns the server credit, unless it crawled in
	// below the slow-serve floor.
	n.observePeer(c.id, n.rep.Config().ServeObservation(int64(d.size), elapsed))
	n.nm.segsDone.Inc()
	n.qoe.SegSeconds.ObserveDuration(elapsed)
	n.qoe.SegBytes.Observe(int64(d.size))
	n.emitAt(n.now(), trace.CatSched, trace.EvSegComplete, idx,
		trace.Int64("bytes", int64(d.size)),
		trace.Int64("elapsed_us", elapsed.Microseconds()))
	n.mu.Lock()
	if n.play != nil {
		// Errors are impossible: idx was validated against the store size.
		_ = n.play.OnSegmentComplete(idx, n.now())
	}
	complete := n.store.Complete()
	n.mu.Unlock()

	n.broadcastHave(idx)
	if complete {
		n.completeOnce.Do(func() { close(n.completeC) })
	}
	n.schedule()
}

// expireStalled abandons downloads that have made no progress within the
// timeout so the watchdog can retry them on another connection.
func (n *Node) expireStalled() {
	var stalled []*segDownload
	n.mu.Lock()
	for idx, d := range n.active {
		if time.Since(d.progress) > n.cfg.DownloadTimeout {
			n.dropActiveLocked(idx)
			n.est.Finish(n.now())
			n.stats.ExpiredDownloads++
			stalled = append(stalled, d)
		}
	}
	n.mu.Unlock()
	for _, d := range stalled {
		n.cfg.Logf("peer %s: segment %d timed out on %s", n.peerID, d.index, d.conn.id)
		n.nm.expired.Inc()
		n.emitAt(n.now(), trace.CatSched, trace.EvTimeout, d.index)
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

// observePeer records one reputation observation about a remote peer and
// traces the resulting penalty, quarantine, or probation clearance. The
// CatRep events carry the peer ID as an argument: the node's own trace
// stream has no per-event peer column (Event.Peer is the emulation's).
func (n *Node) observePeer(id wire.PeerID, obs reputation.Observation) {
	at := n.now()
	n.mu.Lock()
	up := n.rep.Observe(id, at, obs)
	n.mu.Unlock()
	if obs != reputation.ObsSuccess {
		n.nm.repPenalties.Inc()
		n.emitAt(at, trace.CatRep, trace.EvRepPenalty, -1,
			trace.Str("peer", id.String()),
			trace.Str("obs", obs.String()),
			trace.Float64("score", up.Score))
	}
	if up.Cleared {
		n.emitAt(at, trace.CatRep, trace.EvProbationClear, -1,
			trace.Str("peer", id.String()))
	}
	if up.Quarantined {
		n.nm.quarantines.Inc()
		n.emitAt(at, trace.CatRep, trace.EvQuarantine, -1,
			trace.Str("peer", id.String()),
			trace.Float64("score", up.Score),
			trace.Int64("until_us", up.Until.Microseconds()))
	}
}
