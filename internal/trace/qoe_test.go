package trace

import (
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
)

// Every entry point of the recorder, driven with the facts each stack
// supplies — the emulation's peer ids, the real node's -1 and wire id —
// must read back through Replay into the same histograms, counters and
// series: a key spelled differently by the writer and the reader fails
// here. The exception is pool_size_k: every decision observes it, but one
// at a full pool emits no event and samples no series.
func TestRecorderRoundTrips(t *testing.T) {
	buf, reg, ts := NewBuffer(), NewRegistry(), NewTimeSeries(time.Second)
	live := NewQoE(New(buf), reg, "t", "2s", ts, 2)

	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	classify := func(time.Duration) StallFacts { return StallFacts{InFlight: 1, Frozen: 1} }
	penalty := reputation.Update{Score: 7.5}
	quarantine := reputation.Update{Score: 12, Quarantined: true, Until: sec(30)}
	for _, who := range []struct {
		peer, src int
		from      []int // the segment's source, where sources have ids
		wireID    string
	}{
		{peer: 3, src: 5, from: []int{-1}},  // emulation: integer ids, -1 the CDN origin
		{peer: -1, src: -1, wireID: "ab12"}, // real node: its own events, remotes by wire id
	} {
		live.PoolDecision(sec(1), who.peer, 0, PoolFacts{
			Bandwidth: 128 << 10, Buffered: sec(2.5), SegBytes: 256 << 10,
			Target: 3, InFlight: 1, Launched: 2, Blocked: true,
		})
		for _, full := range []int{3, 4} { // at k, and above it after k fell
			live.PoolDecision(sec(2), who.peer, 1, PoolFacts{
				Bandwidth: 64 << 10, Buffered: sec(0.5), SegBytes: 256 << 10, Target: 3, InFlight: full,
			})
		}
		live.Segment(sec(4), who.peer, 0, 256<<10, sec(1.75), who.from...)
		live.Transition(player.Transition{From: player.StateWaiting, To: player.StatePlaying, At: sec(4)}, who.peer, sec(1), classify)
		live.Transition(player.Transition{From: player.StatePlaying, To: player.StateStalled, At: sec(6)}, who.peer, sec(1), classify)
		live.Transition(player.Transition{From: player.StateStalled, To: player.StatePlaying, At: sec(9)}, who.peer, sec(1), classify)
		live.Transition(player.Transition{From: player.StatePlaying, To: player.StateFinished, At: sec(12)}, who.peer, sec(1), classify)
		// The reputation target is the remote: the emulation's source id, or
		// the node's -1 with the wire id.
		live.Reputation(sec(5), who.src, who.wireID, reputation.ObsVerifyFail, penalty)
		live.Reputation(sec(6), who.src, who.wireID, reputation.ObsStaleHave, quarantine)
		live.Reputation(sec(40), who.src, who.wireID, reputation.ObsSuccess, reputation.Update{Cleared: true})
	}

	live.QuarantineEnd(sec(30), 5) // only the emulation runs a release timer

	events := buf.Events()
	names := map[string]int{}
	for _, ev := range events {
		names[ev.Name]++
	}
	for _, name := range []string{
		EvPoolFill, EvSegComplete, EvStartup, EvStallBegin, EvStallCause, EvStallEnd, EvFinished,
		EvQuarantine, EvProbationClear,
	} {
		if names[name] != 2 {
			t.Errorf("%d %s events, want one per stack: %v", names[name], name, names)
		}
	}
	if names[EvRepPenalty] != 4 || names[EvQuarantineEnd] != 1 {
		t.Errorf("%d %s and %d %s events, want two per stack and one", names[EvRepPenalty], EvRepPenalty, names[EvQuarantineEnd], EvQuarantineEnd)
	}
	// The node-shaped reputation events name their subject by wire id; a
	// segment names its source only where sources have ids, the CDN's -1
	// included.
	for _, ev := range events {
		if src, ok := ev.Arg("src"); ev.Name == EvSegComplete && (ok != (ev.Peer >= 0) || ok && src.Int != -1) {
			t.Errorf("%s of peer %d carries src %v (present: %t), want -1 on the emulation only", ev.Name, ev.Peer, src, ok)
		}
		if ev.Cat == CatRep && ev.Peer < 0 && ev.ArgStr(ArgPeer, "") != "ab12" {
			t.Errorf("%s without a peer id carries %s=%q, want the wire id", ev.Name, ArgPeer, ev.ArgStr(ArgPeer, ""))
		}
	}

	liveSnap := reg.Snap()
	for name, want := range map[string]int64{"t_rep_penalties_total": 4, "t_quarantines_total": 2} {
		if got := statValue(liveSnap, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	reg2, ts2 := NewRegistry(), NewTimeSeries(time.Second)
	NewQoE(nil, reg2, "t", "2s", ts2, 2).Replay(events)
	replayed := reg2.Snap()
	// Six decisions observed k live, the two with room in the replay.
	if live, rebuilt := poolK(&liveSnap), poolK(&replayed); live.Count != 6 || rebuilt.Count != 2 {
		t.Errorf("pool_size_k counts %d live and %d replayed, want every decision (6) and those with room (2)", live.Count, rebuilt.Count)
	}
	if got, want := replayed, liveSnap; !reflect.DeepEqual(got, want) {
		t.Errorf("replayed registry differs:\nlive:     %+v\nreplayed: %+v", want, got)
	}
	if got, want := ts2.Snap(), ts.Snap(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed series differ:\nlive:     %+v\nreplayed: %+v", want, got)
	}
	for _, s := range ts.Snap().Series {
		if tsTotal(s) == 0 {
			t.Errorf("series %s recorded nothing: the round trip is vacuous for it", s.Name)
		}
	}
}

// poolK removes the t_pool_size_k histogram from snap and returns it.
func poolK(snap *RegistrySnapshot) HistStat {
	for i, h := range snap.Hists {
		if h.Name == "t_pool_size_k" {
			snap.Hists = append(snap.Hists[:i], snap.Hists[i+1:]...)
			return h
		}
	}
	return HistStat{}
}

// statValue is the value of the stat named name in snap, 0 if absent.
func statValue(snap RegistrySnapshot, name string) int64 {
	for _, st := range snap.Stats {
		if st.Name == name {
			return st.Value
		}
	}
	return 0
}
