package peer

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
	"p2psplice/internal/shaper"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
	"p2psplice/internal/wire"
)

// Config configures a node.
type Config struct {
	// ListenAddr is the TCP address to serve on. Defaults to "127.0.0.1:0".
	ListenAddr string
	// Policy is the download-pooling policy. Defaults to core.AdaptivePool.
	Policy core.Policy
	// MaxUploadSlots bounds how many connections this node serves blocks to
	// simultaneously (BitTorrent unchoke slots). A requester beyond the
	// limit receives MsgChoke and retries after MsgUnchoke. Defaults to 8;
	// set -1 for unlimited.
	MaxUploadSlots int
	// AnnounceInterval is the tracker refresh period. Defaults to 30s.
	AnnounceInterval time.Duration
	// DownloadTimeout abandons a segment download making no progress for
	// this long and retries elsewhere. Defaults to 30s.
	DownloadTimeout time.Duration
	// Shape optionally applies a bandwidth/latency shape to each of this
	// node's connections, per connection and per direction: a node with k
	// conns can move k times the rate (see package shaper).
	Shape *shaper.Config
	// DialTimeout bounds peer connection attempts. Defaults to 5s.
	DialTimeout time.Duration
	// Reputation configures per-peer scoring and quarantine: decaying
	// penalties for verification failures, serve timeouts, stale HAVEs and
	// slow serves, with probation re-admission (see internal/reputation).
	// Nil means reputation.Default(). A zero-valued config keeps scoring
	// but never quarantines.
	Reputation *reputation.Config
	// Trace receives structured events (schedule decisions, piece and
	// verification outcomes, playback transitions with attributed stall
	// causes). Nil disables tracing at the cost of one nil check per event.
	Trace *trace.Tracer
	// Metrics receives the node's counters and gauges. Nil disables them.
	Metrics *trace.Registry
}

func (c Config) withDefaults() Config {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.Policy == nil {
		c.Policy = core.AdaptivePool{}
	}
	if c.MaxUploadSlots == 0 {
		c.MaxUploadSlots = 8
	}
	if c.MaxUploadSlots < 0 {
		c.MaxUploadSlots = int(^uint(0) >> 1) // unlimited
	}
	if c.AnnounceInterval <= 0 {
		c.AnnounceInterval = 30 * time.Second
	}
	if c.DownloadTimeout <= 0 {
		c.DownloadTimeout = 30 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.Reputation == nil {
		d := reputation.Default()
		c.Reputation = &d
	}
	return c
}

// Stats is a snapshot of a node's transfer counters.
type Stats struct {
	DownloadedBytes int64
	UploadedBytes   int64
	SegmentsHeld    int
	Connections     int
	// VerifyFailures counts completed segments that failed manifest
	// verification and were re-downloaded.
	VerifyFailures int64
	// StoreFailures counts completed segments the store rejected; each one
	// is rescheduled.
	StoreFailures int64
	// ExpiredDownloads counts in-flight downloads abandoned by the
	// progress watchdog and retried elsewhere.
	ExpiredDownloads int64
}

// Node is one swarm member (seeder or leecher).
type Node struct {
	cfg      Config
	trk      *tracker.Client
	infoHash wire.InfoHash
	peerID   wire.PeerID
	manifest *container.Manifest
	store    SegmentStore
	seeder   bool

	ln      net.Listener
	started time.Time // playback clock origin (leechers)

	tr *trace.Tracer // immutable after construction; nil-safe
	nm nodeMetrics   // immutable after construction; handles are no-ops without a registry
	// qoe records playback telemetry into the tracer and registry. Its
	// handles are lock-free; its transition methods run under mu.
	qoe *trace.QoE

	mu     sync.Mutex // guards conns, roster, active, dl, set, play, stats, servingConns, chokedWaiters, closed, trackerDown, cachedPeers, dialState, rep and serveDuplicate
	conns  map[wire.PeerID]*conn
	active map[int]*segDownload // the socket side of each download in flight
	// roster seats each conn's source in the conn's slot for the node's
	// life. dl is this node as a downloader: its pool, which roster tracks
	// as a non-member (Have mirrors the store, Fetching active's keys), its
	// meter and its flights. set is schedule's source-set scratch.
	roster *core.Roster
	dl     *core.Downloads
	set    core.SourceSet
	// rep scores remote peers by ID — the stable identity a repeat
	// offender keeps across reconnects. The scheduler deprioritizes high
	// scores and skips quarantined peers, so a peer serving corrupt data
	// or dangling stale HAVEs cannot capture the schedule just because it
	// is less busy; decay and probation let a reformed (or misjudged)
	// peer earn its way back, unlike the never-decaying failure count it
	// replaces.
	rep           *reputation.Table[wire.PeerID]
	play          *player.Player // nil for seeders
	stats         Stats
	servingConns  int     // occupied upload slots
	chokedWaiters []*conn // FIFO of choked requesters awaiting a slot
	closed        bool
	// serveDuplicate, while set, makes serveBlock send every PIECE twice
	// (the KindDuplicate fault): receivers must be idempotent.
	serveDuplicate bool
	trackerDown    bool                    // last announce failed; degraded to cachedPeers
	cachedPeers    []tracker.PeerInfo      // last successful announce result
	dialState      map[string]*dialBackoff // per-address reconnect backoff
	completeC      chan struct{}           // closed when the store completes
	completeOnce   sync.Once

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Seed publishes the manifest to the tracker and serves the given segment
// blobs. The node serves the blobs themselves, not a copy: the caller
// must not write to them after Seed. The returned node runs until Close.
func Seed(trk *tracker.Client, m *container.Manifest, blobs [][]byte, cfg Config) (*Node, error) {
	if trk == nil {
		return nil, errors.New("peer: nil tracker client")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(blobs) != len(m.Segments) {
		return nil, fmt.Errorf("peer: %d blobs for %d manifest segments", len(blobs), len(m.Segments))
	}
	if err := m.VerifySegments(blobs); err != nil {
		return nil, fmt.Errorf("peer: seed data: %w", err)
	}
	store, err := NewFullStore(blobs)
	if err != nil {
		return nil, err
	}
	ih, err := trk.Publish(m)
	if err != nil {
		return nil, err
	}
	n, err := newNode(trk, ih, m, store, true, cfg)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Join fetches the manifest for infoHash from the tracker and starts
// downloading and playing the clip.
func Join(trk *tracker.Client, infoHash wire.InfoHash, cfg Config) (*Node, error) {
	if trk == nil {
		return nil, errors.New("peer: nil tracker client")
	}
	m, err := trk.Manifest(infoHash)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(len(m.Segments))
	if err != nil {
		return nil, err
	}
	return newNode(trk, infoHash, m, store, false, cfg)
}

func newNode(trk *tracker.Client, ih wire.InfoHash, m *container.Manifest, store SegmentStore, seeder bool, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	peerID, err := wire.NewPeerID()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Build the player before the Node exists so every post-construction
	// access to the guarded play field goes through n.mu.
	var play *player.Player
	if !seeder {
		durations := make([]time.Duration, len(m.Segments))
		for i, s := range m.Segments {
			durations[i] = s.Duration
		}
		play, err = player.New(player.Config{SegmentDurations: durations})
		if err != nil {
			cancel()
			return nil, err
		}
		if err := play.Start(0); err != nil {
			cancel()
			return nil, err
		}
	}
	roster, dl := core.NewRoster(nil, maxConcurrentPerConn), core.NewDownloads(store.Bitfield(), play)
	roster.Track(&dl.Pool, -1)
	n := &Node{
		cfg:       cfg,
		trk:       trk,
		infoHash:  ih,
		peerID:    peerID,
		manifest:  m,
		store:     store,
		seeder:    seeder,
		started:   time.Now(),
		tr:        cfg.Trace,
		nm:        newNodeMetrics(cfg.Metrics),
		qoe:       trace.NewQoE(cfg.Trace, cfg.Metrics, "p2p", m.Splicing, nil, 1),
		conns:     make(map[wire.PeerID]*conn),
		active:    make(map[int]*segDownload),
		roster:    roster,
		dl:        dl,
		dialState: make(map[string]*dialBackoff),
		rep:       reputation.NewTable[wire.PeerID](*cfg.Reputation),
		play:      play,
		completeC: make(chan struct{}),
		ctx:       ctx,
		cancel:    cancel,
	}
	if play != nil {
		// Attached after Start, so only post-join transitions are traced.
		// Every later player call runs under n.mu, which the observer
		// therefore inherits.
		play.SetObserver(func(t player.Transition) { n.playbackTransitionLocked(t) })
	}
	if store.Complete() {
		n.completeOnce.Do(func() { close(n.completeC) })
	}

	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("peer: listen: %w", err)
	}
	if cfg.Shape != nil {
		shaped, err := shaper.NewListener(ln, *cfg.Shape)
		if err != nil {
			ln.Close()
			cancel()
			return nil, err
		}
		n.ln = shaped
	} else {
		n.ln = ln
	}

	n.wg.Add(2)
	go n.acceptLoop()
	go n.trackerLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// InfoHash returns the swarm identity.
func (n *Node) InfoHash() wire.InfoHash { return n.infoHash }

// Manifest returns the clip manifest.
func (n *Node) Manifest() *container.Manifest { return n.manifest }

// Store exposes the segment store (read-mostly use).
func (n *Node) Store() SegmentStore { return n.store }

// now returns the playback-clock time (time since the node joined).
func (n *Node) now() time.Duration { return time.Since(n.started) }

// Playback returns the playback metrics (zero Metrics for a seeder).
func (n *Node) Playback() player.Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.play == nil {
		return player.Metrics{}
	}
	return n.play.Metrics(n.now())
}

// Stats snapshots the transfer counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.stats
	st.SegmentsHeld = n.store.Count()
	st.Connections = len(n.conns)
	return st
}

// Ready reports whether the node can usefully take traffic: it holds a
// manifest and at least one peer connection is live. Nil means ready;
// the error names what is missing. Backs the /readyz probe — a node
// that is still joining (or has lost every connection) is alive but not
// ready, and a prober should distinguish the two.
func (n *Node) Ready() error {
	if n.manifest == nil {
		return errors.New("no manifest")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("node closed")
	}
	if len(n.conns) == 0 {
		return errors.New("no live peer connections")
	}
	return nil
}

// SetServeDuplication opens (on) or closes a duplicated-delivery fault
// window: while open, serveBlock sends every PIECE twice. Wired to
// fault.KindDuplicate by the fault harness; receivers must be idempotent
// (blocks are counted once however often they arrive).
func (n *Node) SetServeDuplication(on bool) {
	n.mu.Lock()
	changed := n.serveDuplicate != on
	n.serveDuplicate = on
	n.mu.Unlock()
	if !changed {
		return
	}
	name := trace.EvDuplicateEnd
	if on {
		name = trace.EvDuplicate
	}
	n.emit(trace.CatFault, name, -1)
}

// Done returns a channel closed when every segment has been downloaded.
func (n *Node) Done() <-chan struct{} { return n.completeC }

// WaitComplete blocks until the store is complete or ctx is cancelled.
func (n *Node) WaitComplete(ctx context.Context) error {
	select {
	case <-n.completeC:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-n.ctx.Done():
		return errors.New("peer: node closed")
	}
}

// Close leaves the swarm and releases all resources.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*conn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	n.cancel()
	_ = n.ln.Close()
	for _, c := range conns {
		c.close()
	}
	_ = n.trk.Leave(n.infoHash, n.peerID)
	n.wg.Wait()
	return nil
}

// acceptLoop serves inbound peers.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		raw, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleInbound(raw)
		}()
	}
}

// handshake runs the wire handshake on a fresh connection, under a
// deadline bounding the whole exchange. The deadline is cleared by defer
// so no exit path can leave it armed — an armed deadline would silently
// kill the connection's read loop DialTimeout after the handshake.
func (n *Node) handshake(raw net.Conn, initiate bool) (wire.PeerID, error) {
	_ = raw.SetDeadline(time.Now().Add(n.cfg.DialTimeout))
	defer func() { _ = raw.SetDeadline(time.Time{}) }()
	var remote wire.PeerID
	if initiate {
		if err := wire.WriteHandshake(raw, wire.Handshake{InfoHash: n.infoHash, PeerID: n.peerID}); err != nil {
			return remote, err
		}
		hs, err := wire.ReadHandshake(raw)
		if err != nil {
			return remote, err
		}
		if hs.InfoHash != n.infoHash {
			return remote, fmt.Errorf("remote is in swarm %s", hs.InfoHash)
		}
		return hs.PeerID, nil
	}
	hs, err := wire.ReadHandshake(raw)
	if err != nil {
		return remote, err
	}
	if hs.InfoHash != n.infoHash {
		return remote, fmt.Errorf("wrong swarm %s", hs.InfoHash)
	}
	if err := wire.WriteHandshake(raw, wire.Handshake{InfoHash: n.infoHash, PeerID: n.peerID}); err != nil {
		return remote, err
	}
	return hs.PeerID, nil
}

func (n *Node) handleInbound(raw net.Conn) {
	remote, err := n.handshake(raw, false)
	if err != nil {
		raw.Close()
		return
	}
	_ = n.startConn(raw, remote) // a failed start has closed raw
}

// Connect dials a peer and adds it to the connection set. Connecting to an
// already-connected peer is a no-op.
func (n *Node) Connect(addr string) error {
	var raw net.Conn
	var err error
	if n.cfg.Shape != nil {
		raw, err = shaper.Dial("tcp", addr, *n.cfg.Shape, n.cfg.DialTimeout)
	} else {
		raw, err = net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	}
	if err != nil {
		return fmt.Errorf("peer: dial %s: %w", addr, err)
	}
	remote, err := n.handshake(raw, true)
	if err != nil {
		raw.Close()
		return fmt.Errorf("peer: %s: %w", addr, err)
	}
	return n.startConn(raw, remote)
}

// trackerLoop announces periodically and connects to discovered peers.
func (n *Node) trackerLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.AnnounceInterval)
	defer t.Stop()
	n.announceAndConnect()
	// A faster watchdog drives download retries and timeouts.
	wd := time.NewTicker(time.Second)
	defer wd.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			n.announceAndConnect()
		case <-wd.C:
			n.expireStalled()
			n.reapIdleSlots()
			n.reconnectPeers()
			n.schedule()
		}
	}
}

// announceAndConnect refreshes swarm membership from the tracker. When
// the announce fails the node degrades gracefully instead of giving up:
// it keeps serving and downloading over existing connections, falls back
// to the peer list cached from the last successful announce, and
// re-announces on the next tick. Tracker loss and recovery are traced as
// fault events so timelines can attribute downstream stalls to it.
func (n *Node) announceAndConnect() {
	annStart := n.now()
	peers, err := n.trk.Announce(n.infoHash, n.peerID, n.Addr(), n.seeder)
	if err != nil {
		n.nm.announceFails.Inc()
		n.mu.Lock()
		wasUp := !n.trackerDown
		n.trackerDown = true
		cached := append([]tracker.PeerInfo(nil), n.cachedPeers...)
		n.mu.Unlock()
		if wasUp {
			n.emit(trace.CatFault, trace.EvTrackerDown, -1)
		}
		n.connectKnownPeers(cached)
		n.schedule()
		return
	}
	// Only successful announces measure tracker RTT — a failed one's
	// elapsed time is the retry/timeout budget, not the server's latency.
	n.nm.announceRTT.ObserveDuration(n.now() - annStart)
	n.mu.Lock()
	wasDown := n.trackerDown
	n.trackerDown = false
	n.cachedPeers = append(n.cachedPeers[:0], peers...)
	n.mu.Unlock()
	if wasDown {
		n.emit(trace.CatFault, trace.EvTrackerUp, -1)
	}
	n.connectKnownPeers(peers)
	n.schedule()
}

func (n *Node) hasConn(peerIDHex string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.conns {
		if id.String() == peerIDHex {
			return true
		}
	}
	return false
}
