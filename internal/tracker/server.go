// Package tracker implements the swarm rendezvous service: seeders publish a
// clip manifest, peers fetch it and announce themselves to discover other
// swarm members. The paper's application gets "different information about
// the video and the swarm" from the seeder at startup; factoring that into a
// tracker matches the BitTorrent architecture the protocol imitates.
//
// The protocol is plain HTTP + JSON over the standard library.
package tracker

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/trace"
	"p2psplice/internal/wire"
)

// DefaultPeerTTL is how long an announce stays fresh.
const DefaultPeerTTL = 2 * time.Minute

// maxManifestBytes bounds a published manifest (hostile-input protection).
const maxManifestBytes = 8 << 20

// PeerInfo is one swarm member as reported by the tracker.
type PeerInfo struct {
	PeerID string `json:"peer_id"`
	Addr   string `json:"addr"`
	Seeder bool   `json:"seeder"`
}

// AnnounceResponse is the tracker's reply to an announce.
type AnnounceResponse struct {
	Peers []PeerInfo `json:"peers"`
	// Interval suggests the next announce, in seconds.
	Interval int `json:"interval"`
}

// Server is the tracker. Create with NewServer and mount via Handler.
type Server struct {
	peerTTL time.Duration
	now     func() time.Time

	// Request counters and the live swarm gauge. No-op handles unless
	// WithMetrics supplies a registry.
	announces      trace.Counter
	publishes      trace.Counter
	manifestReads  trace.Counter
	leaves         trace.Counter
	announceErrors trace.Counter
	swarmGauge     trace.Gauge

	mu     sync.Mutex
	swarms map[wire.InfoHash]*swarmState
}

type swarmState struct {
	manifest []byte // canonical published JSON
	peers    map[string]*peerEntry
}

type peerEntry struct {
	info     PeerInfo
	lastSeen time.Time
}

// Option configures the server.
type Option func(*Server)

// WithPeerTTL overrides the announce freshness window.
func WithPeerTTL(ttl time.Duration) Option {
	return func(s *Server) {
		if ttl > 0 {
			s.peerTTL = ttl
		}
	}
}

// WithMetrics wires the tracker's request counters and swarm gauge into
// reg (shared with the rest of the process and served by its /metrics
// endpoint). Nil leaves the no-op handles in place.
func WithMetrics(reg *trace.Registry) Option {
	return func(s *Server) {
		if reg == nil {
			return
		}
		reg.SetHelp("tracker_announces_total", "Successful announce requests.")
		reg.SetHelp("tracker_announce_errors_total", "Rejected announce and publish requests (bad peer, unknown swarm, or a cap reached).")
		reg.SetHelp("tracker_publishes_total", "Accepted manifest publishes.")
		reg.SetHelp("tracker_manifest_fetches_total", "Manifest downloads served.")
		reg.SetHelp("tracker_leaves_total", "Processed leave requests.")
		reg.SetHelp("tracker_swarms", "Swarms currently registered.")
		s.announces = reg.Counter("tracker_announces_total")
		s.announceErrors = reg.Counter("tracker_announce_errors_total")
		s.publishes = reg.Counter("tracker_publishes_total")
		s.manifestReads = reg.Counter("tracker_manifest_fetches_total")
		s.leaves = reg.Counter("tracker_leaves_total")
		s.swarmGauge = reg.Gauge("tracker_swarms")
	}
}

// WithClock overrides the time source (tests).
func WithClock(now func() time.Time) Option {
	return func(s *Server) {
		if now != nil {
			s.now = now
		}
	}
}

// NewServer returns an empty tracker.
func NewServer(opts ...Option) *Server {
	s := &Server{
		peerTTL: DefaultPeerTTL,
		now:     time.Now,
		swarms:  make(map[wire.InfoHash]*swarmState),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the HTTP mux for the tracker API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /publish", s.handlePublish)
	mux.HandleFunc("GET /manifest", s.handleManifest)
	mux.HandleFunc("GET /announce", s.handleAnnounce)
	mux.HandleFunc("POST /leave", s.handleLeave)
	mux.HandleFunc("GET /swarms", s.handleSwarms)
	return mux
}

// InfoHashFor returns the swarm identity of a published manifest: the
// SHA-256 of its canonical JSON encoding.
func InfoHashFor(raw []byte) wire.InfoHash {
	return wire.InfoHash(sha256.Sum256(raw))
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxManifestBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(raw) > maxManifestBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "manifest exceeds %d bytes", maxManifestBytes)
		return
	}
	var m container.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		httpError(w, http.StatusBadRequest, "parse manifest: %v", err)
		return
	}
	if err := m.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid manifest: %v", err)
		return
	}
	ih := InfoHashFor(raw)
	// A known swarm republishes; a new one beyond maxSwarms is refused.
	if !s.register(ih, raw) {
		s.announceErrors.Inc()
		httpError(w, http.StatusServiceUnavailable, "tracker holds %d swarms", maxSwarms)
		return
	}
	s.publishes.Inc()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]string{"info_hash": ih.String()}); err != nil {
		return // client went away; nothing to do
	}
}

func (s *Server) swarmFor(w http.ResponseWriter, r *http.Request) (*swarmState, wire.InfoHash, bool) {
	ih, err := wire.ParseInfoHash(r.URL.Query().Get("info_hash"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, ih, false
	}
	s.mu.Lock()
	sw, ok := s.swarms[ih]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown swarm %s", ih)
		return nil, ih, false
	}
	return sw, ih, true
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	sw, _, ok := s.swarmFor(w, r)
	if !ok {
		return
	}
	s.manifestReads.Inc()
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore wireerr response-body write failure means the client went away; nothing to recover server-side
	_, _ = w.Write(sw.manifest)
}

func (s *Server) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	sw, _, ok := s.swarmFor(w, r)
	if !ok {
		s.announceErrors.Inc()
		return
	}
	q := r.URL.Query()
	peerID := q.Get("peer_id")
	if len(peerID) != 2*wire.PeerIDLen {
		s.announceErrors.Inc()
		httpError(w, http.StatusBadRequest, "bad peer_id %q", peerID)
		return
	}
	addr := q.Get("addr")
	if _, _, err := net.SplitHostPort(addr); err != nil {
		s.announceErrors.Inc()
		httpError(w, http.StatusBadRequest, "bad addr %q: %v", addr, err)
		return
	}
	seeder := q.Get("seeder") == "1"
	now := s.now()
	s.mu.Lock()
	resp := AnnounceResponse{Interval: int(s.peerTTL.Seconds() / 2)}
	for id, pe := range sw.peers {
		if now.Sub(pe.lastSeen) > s.peerTTL {
			delete(sw.peers, id)
		} else if id != peerID {
			resp.Peers = append(resp.Peers, pe.info)
		}
	}
	// A live peer refreshes; a new one beyond maxSwarmPeers is refused.
	if _, known := sw.peers[peerID]; !known && len(sw.peers) >= maxSwarmPeers {
		s.mu.Unlock()
		s.announceErrors.Inc()
		httpError(w, http.StatusServiceUnavailable, "swarm holds %d live peers", maxSwarmPeers)
		return
	}
	sw.peers[peerID] = &peerEntry{info: PeerInfo{PeerID: peerID, Addr: addr, Seeder: seeder}, lastSeen: now}
	s.mu.Unlock()
	s.announces.Inc()
	resp.Peers = responsePeers(resp.Peers)

	w.Header().Set("Content-Type", "application/json")
	//lint:ignore wireerr response-body write failure means the client went away; nothing to recover server-side
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	sw, _, ok := s.swarmFor(w, r)
	if !ok {
		return
	}
	peerID := r.URL.Query().Get("peer_id")
	s.mu.Lock()
	delete(sw.peers, peerID)
	s.mu.Unlock()
	s.leaves.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleSwarms lists known swarms (operational introspection).
func (s *Server) handleSwarms(w http.ResponseWriter, _ *http.Request) {
	type swarmInfo struct {
		InfoHash string `json:"info_hash"`
		Peers    int    `json:"peers"`
	}
	var out []swarmInfo
	s.mu.Lock()
	for ih, sw := range s.swarms {
		out = append(out, swarmInfo{InfoHash: ih.String(), Peers: len(sw.peers)})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].InfoHash < out[j].InfoHash })
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore wireerr response-body write failure means the client went away; nothing to recover server-side
	_ = json.NewEncoder(w).Encode(out)
}

// Caps on what outside input can make the tracker hold and hand out:
// peers per announce response (BitTorrent's default numwant; a node dials
// every peer it is given), live peers per swarm, and swarms.
const (
	maxResponsePeers = 50
	maxSwarmPeers    = 1024
	maxSwarms        = 64
)

// register adds swarm ih unless that exceeds maxSwarms; it reports whether ih is registered.
func (s *Server) register(ih wire.InfoHash, raw []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.swarms[ih]
	if !ok && len(s.swarms) < maxSwarms {
		s.swarms[ih] = &swarmState{manifest: raw, peers: make(map[string]*peerEntry)}
		s.swarmGauge.Set(int64(len(s.swarms)))
		ok = true
	}
	return ok
}

// responsePeers sorts peers by id; past maxResponsePeers it keeps seeders first, then id order.
func responsePeers(peers []PeerInfo) []PeerInfo {
	sort.Slice(peers, func(i, j int) bool { return peers[i].PeerID < peers[j].PeerID })
	if len(peers) > maxResponsePeers {
		sort.SliceStable(peers, func(i, j int) bool { return peers[i].Seeder && !peers[j].Seeder })
		peers = peers[:maxResponsePeers]
	}
	return peers
}
