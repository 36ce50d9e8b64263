package trace

import "sort"

// StallRecord is one stall on a peer's timeline. EndUS is -1 while the
// stall is still open at the end of the trace. Cause is empty only when
// no EvStallCause event accompanied the stall — the attribution tests
// treat that as a failure.
type StallRecord struct {
	Peer    int
	StartUS int64
	EndUS   int64
	Cause   string
}

// PeerTimeline summarizes one peer's playback from its trace events.
type PeerTimeline struct {
	Peer      int
	StartupUS int64
	Finished  bool
	Stalls    []StallRecord
}

// BuildTimeline folds a trace into per-peer stall timelines: every
// EvStallBegin opens a record, the following EvStallCause for the same
// peer attributes it, and EvStallEnd closes it. Peers appear in
// ascending id order; a real node's log carries no ids and is one
// timeline, Peer -1.
func BuildTimeline(events []Event) []PeerTimeline {
	byPeer := map[int]*PeerTimeline{}
	open := map[int]int{} // peer -> index into its Stalls of the open record
	get := func(peer int) *PeerTimeline {
		tl := byPeer[peer]
		if tl == nil {
			tl = &PeerTimeline{Peer: peer, StartupUS: -1}
			byPeer[peer] = tl
		}
		return tl
	}
	for _, ev := range events {
		if ev.Cat != CatPlayer {
			continue
		}
		switch ev.Name {
		case EvStartup:
			get(ev.Peer).StartupUS = ev.ArgInt64("startup_us", ev.At.Microseconds())
		case EvStallBegin:
			tl := get(ev.Peer)
			tl.Stalls = append(tl.Stalls, StallRecord{
				Peer: ev.Peer, StartUS: ev.At.Microseconds(), EndUS: -1,
			})
			open[ev.Peer] = len(tl.Stalls) - 1
		case EvStallCause:
			tl := get(ev.Peer)
			if i, ok := open[ev.Peer]; ok && i < len(tl.Stalls) {
				tl.Stalls[i].Cause = ev.ArgStr("cause", "")
			}
		case EvStallEnd:
			tl := get(ev.Peer)
			if i, ok := open[ev.Peer]; ok && i < len(tl.Stalls) {
				tl.Stalls[i].EndUS = ev.At.Microseconds()
				delete(open, ev.Peer)
			}
		case EvFinished:
			get(ev.Peer).Finished = true
		}
	}
	var out []PeerTimeline
	for _, tl := range byPeer {
		out = append(out, *tl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Unattributed returns the stalls lacking a cause. An empty result is
// what the acceptance tests demand: 100% of stalls name a cause.
func Unattributed(tls []PeerTimeline) []StallRecord {
	var out []StallRecord
	for _, tl := range tls {
		for _, s := range tl.Stalls {
			if s.Cause == "" {
				out = append(out, s)
			}
		}
	}
	return out
}
