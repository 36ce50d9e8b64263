package trace

import (
	"testing"
	"time"

	"p2psplice/internal/player"
)

// The precedence order both stacks share: one row per cause (so every
// member of the closed set is reachable), then rows that set two facts at
// once and name which one wins.
func TestStallCausePrecedence(t *testing.T) {
	// Base facts the rows build on.
	holder := StallFacts{Holders: 2}            // empty pool, the next segment has sources
	moving := StallFacts{InFlight: 3}           // three downloads, all moving
	hung := StallFacts{InFlight: 2, Pending: 2} // nothing but unserved requests
	with := func(f StallFacts, set func(*StallFacts)) StallFacts { set(&f); return f }

	rows := []struct {
		name string
		f    StallFacts
		want string
	}{
		// One row per cause.
		{"zero facts", StallFacts{}, CauseNoSource},
		{"scheduler gap", holder, CauseEmptyPool},
		{"blocked holders", with(holder, func(f *StallFacts) { f.Blocked = true }), CauseChokedSources},
		{"tracker outage", StallFacts{TrackerDown: true}, CauseTrackerDown},
		{"crashed holder", StallFacts{CrashedHolder: true}, CausePeerCrash},
		{"holders quarantined", with(holder, func(f *StallFacts) { f.QuarantinedHolders = 2 }), CausePeerQuarantined},
		{"store complete", StallFacts{NothingMissing: true}, CauseSlowFlow},
		{"moving pool", moving, CauseSlowFlow},
		{"frozen download", with(moving, func(f *StallFacts) { f.Frozen = 1 }), CauseFrozenFlow},
		{"sources' links down", with(moving, func(f *StallFacts) { f.LinkDown = 3 }), CauseLinkDown},
		{"burst window", with(moving, func(f *StallFacts) { f.Burst = true }), CauseBurstLoss},
		{"silent sources", hung, CauseStaleHave},
		{"trickling source", with(hung, func(f *StallFacts) { f.Trickling = 1 }), CauseSlowServe},
		{"own crash", StallFacts{OwnCrash: true}, CausePeerCrash},
		{"own link down", StallFacts{OwnLinkDown: true}, CauseLinkDown},
		{"corruption window", StallFacts{Corrupting: true}, CauseCorruptSegment},

		// Own-side conditions: crash over link over corruption over the pool.
		{"crash > own link", StallFacts{OwnCrash: true, OwnLinkDown: true, Corrupting: true}, CausePeerCrash},
		{"own link > corruption", StallFacts{OwnLinkDown: true, Corrupting: true, InFlight: 1, Frozen: 1}, CauseLinkDown},
		{"corruption > pool", with(hung, func(f *StallFacts) { f.Corrupting = true }), CauseCorruptSegment},
		{"corruption > empty pool", StallFacts{Corrupting: true, TrackerDown: true}, CauseCorruptSegment},

		// Empty pool.
		{"nothing missing > no holders", StallFacts{NothingMissing: true, TrackerDown: true}, CauseSlowFlow},
		{"tracker > crashed holder", StallFacts{TrackerDown: true, CrashedHolder: true}, CauseTrackerDown},
		{"live holder > tracker, crashed holder", with(holder, func(f *StallFacts) { f.TrackerDown, f.CrashedHolder = true, true }), CauseEmptyPool},
		{"quarantined > blocked", with(holder, func(f *StallFacts) { f.QuarantinedHolders, f.Blocked = 2, true }), CausePeerQuarantined},
		{"one honest holder: blocked", with(holder, func(f *StallFacts) { f.QuarantinedHolders, f.Blocked = 1, true }), CauseChokedSources},
		{"one honest holder: gap", with(holder, func(f *StallFacts) { f.QuarantinedHolders = 1 }), CauseEmptyPool},
		{"pool facts ignored when empty", StallFacts{Holders: 1, Frozen: 1, Burst: true, AllQuarantined: true}, CauseEmptyPool},

		// Downloads in flight.
		{"unserved > everything below", with(hung, func(f *StallFacts) { f.AllQuarantined, f.Burst = true, true }), CauseStaleHave},
		{"one moving download: not hung", StallFacts{InFlight: 2, Pending: 1, Trickling: 1}, CauseSlowFlow},
		{"link down > frozen", StallFacts{InFlight: 3, Pending: 1, LinkDown: 2, Frozen: 2}, CauseLinkDown},
		{"one live link: frozen", StallFacts{InFlight: 3, LinkDown: 2, Frozen: 1}, CauseFrozenFlow},
		{"one live link: moving", StallFacts{InFlight: 3, LinkDown: 2}, CauseSlowFlow},
		{"frozen > quarantined", with(moving, func(f *StallFacts) { f.Frozen, f.AllQuarantined, f.Burst = 1, true, true }), CauseFrozenFlow},
		{"quarantined > burst", with(moving, func(f *StallFacts) { f.AllQuarantined, f.Burst = true, true }), CausePeerQuarantined},
		{"empty-pool facts ignored in flight", with(moving, func(f *StallFacts) { f.TrackerDown, f.Blocked = true, true }), CauseSlowFlow},
	}
	reached := map[string]bool{}
	for _, r := range rows {
		got := r.f.Cause()
		if got != r.want {
			t.Errorf("%s: Cause() = %s, want %s (%+v)", r.name, got, r.want, r.f)
		}
		reached[got] = true
	}
	for _, c := range StallCauses() {
		if !reached[c] {
			t.Errorf("no row reaches %s", c)
		}
	}
	if len(reached) != len(StallCauses()) {
		t.Errorf("rows reach %d causes, the closed set has %d", len(reached), len(StallCauses()))
	}
}

// One player driven through its whole life: the recorder emits the five
// player events with the stack's arguments, and asks for facts exactly
// once — when the stall begins, with the stall's own (retroactive) time.
func TestQoETransition(t *testing.T) {
	buf := NewBuffer()
	reg := NewRegistry()
	q := NewQoE(New(buf), reg, "t", "", nil, 1)
	var classified []time.Duration
	classify := func(at time.Duration) StallFacts {
		classified = append(classified, at)
		return StallFacts{InFlight: 2, Frozen: 1}
	}
	const joined = 3 * time.Second
	sec := func(s int) time.Duration { return joined + time.Duration(s)*time.Second }
	p, err := player.New(player.Config{SegmentDurations: []time.Duration{2 * time.Second, 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	p.SetObserver(func(tr player.Transition) { q.Transition(tr, 7, joined, classify) })

	steps := []func() error{
		func() error { return p.Start(joined) },                 // idle → waiting: no event
		func() error { return p.OnSegmentComplete(0, sec(1)) },  // waiting → playing
		func() error { return p.OnSegmentComplete(1, sec(10)) }, // stalled at 3 s (seen late), then playing
		func() error { p.Position(sec(20)); return nil },        // finished at 12 s
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	type ev struct {
		name string
		at   time.Duration
	}
	want := []ev{
		{EvStartup, sec(1)}, {EvStallBegin, sec(3)}, {EvStallCause, sec(3)},
		{EvStallEnd, sec(10)}, {EvFinished, sec(12)},
	}
	got := buf.Events()
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].At != w.at || got[i].Peer != 7 || got[i].Cat != CatPlayer {
			t.Errorf("event %d = %+v, want %s at %v for peer 7", i, got[i], w.name, w.at)
		}
	}
	if us := got[0].ArgInt64("startup_us", -1); us != time.Second.Microseconds() {
		t.Errorf("startup_us = %d, want one second after the join", us)
	}
	c := got[2]
	if c.ArgStr("cause", "") != CauseFrozenFlow || c.ArgInt64("inflight", -1) != 2 || c.ArgInt64("frozen", -1) != 1 {
		t.Errorf("stall_cause = %+v, want %s inflight=2 frozen=1", c, CauseFrozenFlow)
	}
	if len(classified) != 1 || classified[0] != sec(3) {
		t.Errorf("classify ran at %v, want once at %v", classified, sec(3))
	}
	if n := histCount(reg.Snap(), `t_stall_seconds{cause="`+CauseFrozenFlow+`"}`); n != 1 {
		t.Errorf("stall histogram for %s counts %d stalls, want 1", CauseFrozenFlow, n)
	}
}
