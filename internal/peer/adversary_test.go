package peer

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"p2psplice/internal/fault"
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
	"p2psplice/internal/wire"
)

// misbehavingPeer is the real-stack twin of the emulation's adversary
// kinds: a wire-level peer that claims every segment and then misbehaves
// as a source. The corrupter and polluter serve payloads that fail
// Manifest.VerifySegment at the victim; the stale-have liar accepts
// requests and serves nothing; the slowloris serves honest bytes with a
// per-block delay. The polluter's per-attempt decisions come from
// fault.PolluteDraw — the same pure-hash draws the emulation uses.
type misbehavingPeer struct {
	ln       net.Listener
	infoHash wire.InfoHash
	id       wire.PeerID
	kind     fault.AdversaryKind
	blobs    [][]byte // honest payloads (polluter and slowloris serve them)
	percent  float64  // polluter pollution percentage
	seed     int64    // polluter draw seed
	trickle  time.Duration

	mu       sync.Mutex
	attempts map[int]int // serve attempts per segment (polluter draws)
}

func startMisbehavingPeer(t *testing.T, ih wire.InfoHash, kind fault.AdversaryKind, blobs [][]byte) *misbehavingPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &misbehavingPeer{
		ln:       ln,
		infoHash: ih,
		kind:     kind,
		blobs:    blobs,
		attempts: make(map[int]int),
	}
	copy(p.id[:], "ADVERSARYADVERSARYAD")
	go p.run()
	t.Cleanup(func() { ln.Close() })
	return p
}

// announceLoop registers the adversary with the tracker every interval so
// victims rediscover (and redial) it after each verification failure
// closes the conn — the repeat-offender scenario reputation exists for.
func (p *misbehavingPeer) announceLoop(t *testing.T, trk *tracker.Client) {
	t.Helper()
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			_, _ = trk.Announce(p.infoHash, p.id, p.ln.Addr().String(), true)
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
}

func (p *misbehavingPeer) run() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serveConn(c)
	}
}

func (p *misbehavingPeer) serveConn(c net.Conn) {
	defer c.Close()
	if _, err := wire.ReadHandshake(c); err != nil {
		return
	}
	if err := wire.WriteHandshake(c, wire.Handshake{InfoHash: p.infoHash, PeerID: p.id}); err != nil {
		return
	}
	have := make([]bool, len(p.blobs))
	for i := range have {
		have[i] = true
	}
	rd, wr := wire.NewReader(c), wire.NewWriter(c)
	if err := wr.WriteMsg(&wire.Message{Type: wire.MsgBitfield, Bitfield: wire.EncodeBitfield(have)}); err != nil {
		return
	}
	for {
		var m wire.Message
		if err := rd.ReadInto(&m); err != nil {
			return
		}
		if m.Type != wire.MsgRequest {
			continue
		}
		idx, off, length := int(m.Index), int(m.Offset), int(m.Length)
		if idx < 0 || idx >= len(p.blobs) || off+length > len(p.blobs[idx]) {
			return
		}
		var data []byte
		switch p.kind {
		case fault.AdvStaleHave:
			continue // accept the request, serve nothing
		case fault.AdvCorrupter:
			data = garbage(length)
		case fault.AdvPolluter:
			p.mu.Lock()
			if off == 0 {
				p.attempts[idx]++
			}
			attempt := p.attempts[idx] - 1
			p.mu.Unlock()
			if fault.PolluteDraw(p.seed, 0, 1, idx, attempt)*100 < p.percent {
				data = garbage(length)
			} else {
				data = p.blobs[idx][off : off+length]
			}
		case fault.AdvSlowloris:
			time.Sleep(p.trickle)
			data = p.blobs[idx][off : off+length]
		}
		if err := wr.WriteMsg(&wire.Message{
			Type: wire.MsgPiece, Index: m.Index, Offset: m.Offset, Data: data,
		}); err != nil {
			return
		}
	}
}

func garbage(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0x66
	}
	return b
}

// instantQuarantine is a reputation config whose first penalty of any
// kind quarantines: it makes the quarantine transitions in these tests
// deterministic instead of timing-dependent.
func instantQuarantine() *reputation.Config {
	return &reputation.Config{
		VerifyFailCost:     10,
		StaleHaveCost:      10,
		SlowServeCost:      10,
		TimeoutCost:        10,
		DecayHalfLife:      time.Hour,
		QuarantineScore:    10,
		QuarantineFor:      30 * time.Second,
		ProbationSuccesses: 2,
	}
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func countRepEvents(buf *trace.Buffer, name string) int {
	n := 0
	for _, ev := range buf.Events() {
		if ev.Cat == trace.CatRep && ev.Name == name {
			n++
		}
	}
	return n
}

// A persistent corrupter as the only source: its garbage fails
// Manifest.VerifySegment at the viewer, one failure quarantines it (and
// is traced), and when an honest seeder appears the viewer completes
// with every stored segment verifying.
func TestCorrupterQuarantinedAndViewerRecovers(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ih := seeder.InfoHash()
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}

	evil := startMisbehavingPeer(t, ih, fault.AdvCorrupter, blobs)

	buf := trace.NewBuffer()
	cfg := fastConfig()
	cfg.Trace = trace.New(buf)
	cfg.Reputation = instantQuarantine()
	viewer, err := Join(trk, ih, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Connect(evil.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "a verification failure", 30*time.Second, func() bool {
		return viewer.Stats().VerifyFailures >= 1
	})
	waitFor(t, "a quarantine trace event", 10*time.Second, func() bool {
		return countRepEvents(buf, trace.EvQuarantine) >= 1
	})
	for _, ev := range buf.Events() {
		if ev.Cat == trace.CatRep && ev.Name == trace.EvQuarantine && ev.ArgStr(trace.ArgPeer, "") != evil.id.String() {
			t.Fatalf("quarantine_begin names %q, not the corrupter %s", ev.ArgStr(trace.ArgPeer, ""), evil.id)
		}
	}
	viewer.mu.Lock()
	state := viewer.rep.State(evil.id, viewer.now())
	viewer.mu.Unlock()
	if state != reputation.Quarantined {
		t.Fatalf("corrupter's standing is %v, want quarantined", state)
	}

	seeder2, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := viewer.WaitComplete(ctx); err != nil {
		t.Fatalf("viewer did not recover from the corrupter: %v", err)
	}
	for i := range blobs {
		blob, err := viewer.Store().Block(i, 0, int(m.Segments[i].Bytes))
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if err := m.VerifySegment(i, blob); err != nil {
			t.Errorf("segment %d stored corrupt: %v", i, err)
		}
	}
}

// Sole-source liveness: the only source is an intermittent polluter
// (pure-hash per-attempt draws, seed chosen so the first serve of at
// least one segment pollutes). The viewer quarantines it after the first
// failure yet still completes — the scheduler's escape hatch re-admits a
// quarantined sole source, and the tracker-driven redial loop restores
// the connection its verify failures keep closing.
func TestPolluterSoleSourceEscapeHatchCompletes(t *testing.T) {
	m, blobs := testSwarmData(t, 8*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ih := seeder.InfoHash()
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}

	evil := startMisbehavingPeer(t, ih, fault.AdvPolluter, blobs)
	evil.percent = 60
	evil.seed = 7 // seg 0 pollutes on its first serves, all segs clean within 4 attempts
	evil.announceLoop(t, trk)

	buf := trace.NewBuffer()
	cfg := fastConfig()
	cfg.Trace = trace.New(buf)
	cfg.Reputation = instantQuarantine()
	viewer, err := Join(trk, ih, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := viewer.WaitComplete(ctx); err != nil {
		t.Fatalf("viewer did not complete off a quarantined polluting sole source: %v", err)
	}
	if got := viewer.Stats().VerifyFailures; got < 1 {
		t.Fatalf("VerifyFailures = %d, want >= 1 (seed 7 pollutes first serves)", got)
	}
	if countRepEvents(buf, trace.EvQuarantine) < 1 {
		t.Fatal("the polluter was never quarantined")
	}
	for i := range blobs {
		blob, err := viewer.Store().Block(i, 0, int(m.Segments[i].Bytes))
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if err := m.VerifySegment(i, blob); err != nil {
			t.Errorf("segment %d stored corrupt: %v", i, err)
		}
	}
}

// A stale-have liar accepts requests and serves nothing: the download
// watchdog expires the transfer with zero blocks received, which scores
// as ObsStaleHave (not a mere timeout) and quarantines the liar.
func TestStaleHaveLiarScoredAndQuarantined(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ih := seeder.InfoHash()
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}

	liar := startMisbehavingPeer(t, ih, fault.AdvStaleHave, blobs)

	buf := trace.NewBuffer()
	cfg := fastConfig()
	cfg.DownloadTimeout = time.Second
	cfg.Trace = trace.New(buf)
	cfg.Reputation = instantQuarantine()
	viewer, err := Join(trk, ih, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Connect(liar.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	staleHavePenalty := func() bool {
		for _, ev := range buf.Events() {
			if ev.Cat == trace.CatRep && ev.Name == trace.EvRepPenalty &&
				ev.ArgStr("obs", "") == reputation.ObsStaleHave.String() {
				return true
			}
		}
		return false
	}
	waitFor(t, "a stale_have penalty", 30*time.Second, staleHavePenalty)
	waitFor(t, "the liar's quarantine", 10*time.Second, func() bool {
		return countRepEvents(buf, trace.EvQuarantine) >= 1
	})
	if got := viewer.Stats().ExpiredDownloads; got < 1 {
		t.Fatalf("ExpiredDownloads = %d, want >= 1", got)
	}

	seeder2, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := viewer.WaitComplete(ctx); err != nil {
		t.Fatalf("viewer did not recover from the stale-have liar: %v", err)
	}
}

// A slowloris that serves honest bytes below the slow-serve floor is
// charged ObsSlowServe on every completion; with quarantining disabled
// (QuarantineScore 0) it is penalized but never banned, and the download
// still completes off it.
func TestSlowServePenalizedWithoutQuarantine(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ih := seeder.InfoHash()
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}

	loris := startMisbehavingPeer(t, ih, fault.AdvSlowloris, blobs)
	loris.trickle = 30 * time.Millisecond

	buf := trace.NewBuffer()
	cfg := fastConfig()
	cfg.Trace = trace.New(buf)
	cfg.Reputation = &reputation.Config{
		SlowServeCost:        2,
		DecayHalfLife:        time.Hour,
		QuarantineScore:      0, // scoring on, quarantine off
		SlowServeBytesPerSec: 8 << 20,
	}
	viewer, err := Join(trk, ih, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Connect(loris.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := viewer.WaitComplete(ctx); err != nil {
		t.Fatalf("viewer did not complete off the slowloris: %v", err)
	}
	slowPenalties := 0
	for _, ev := range buf.Events() {
		if ev.Cat == trace.CatRep && ev.Name == trace.EvRepPenalty &&
			ev.ArgStr("obs", "") == reputation.ObsSlowServe.String() {
			slowPenalties++
		}
	}
	if slowPenalties < 1 {
		t.Fatalf("slow_serve penalties = %d, want >= 1 (floor 8 MB/s, ~30ms per block)", slowPenalties)
	}
	if countRepEvents(buf, trace.EvQuarantine) != 0 {
		t.Fatal("QuarantineScore 0 must never quarantine")
	}
}
