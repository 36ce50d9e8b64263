package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// src is a test source over a four-segment clip that holds everything.
func src(id int, edit ...func(*Source)) *Source {
	s := &Source{ID: id, Have: []bool{true, true, true, true}}
	for _, e := range edit {
		e(s)
	}
	return s
}

func load(n int) func(*Source)      { return func(s *Source) { s.Uploads = n } }
func score(x float64) func(*Source) { return func(s *Source) { s.Score = x } }
func quarantined(s *Source)         { s.Quarantined = true }
func holdsNothing(s *Source)        { s.Have = make([]bool, 4) }
func wholeClip(s *Source)           { s.WholeClip = true }
func sending(idx int) func(*Source) {
	return func(s *Source) { s.Sending = make([]int, 4); s.Sending[idx] = 1 }
}

// relaying makes s a non-holder that is fetching segment 0 and can relay
// the given fraction of it.
func relaying(progress float64) func(*Source) {
	return func(s *Source) {
		s.Have = make([]bool, 4)
		s.Fetching = []bool{true, false, false, false}
		s.Relay = func(int) float64 { return progress }
	}
}

// TestPickTable pins the selection rules on segment 0: the ranking order,
// the two classes, the fallback between them and the escape hatch. The
// first four cases are the real node's pickConn regressions (PRs 3 and 9)
// restated as facts; want is a source ID, none or fallback.
func TestPickTable(t *testing.T) {
	const none, fallback, noCap = -1, -2, 0
	cdn := &Source{ID: -1, WholeClip: true}
	cases := []struct {
		name     string
		sources  []*Source
		prev     int // ID of the requester's previous source, none for none
		cap      int
		fallback bool
		want     int
	}{
		{"a verify-failer loses to a clean source however idle it is",
			[]*Source{src(1, score(1)), src(2, load(1))}, none, noCap, false, 2},
		{"a failing source is still picked when it is the only one",
			[]*Source{src(1, score(1))}, none, noCap, false, 1},
		{"once its score has decayed to zero it competes on load again",
			[]*Source{src(1), src(2, load(1))}, none, noCap, false, 1},
		{"a quarantined source loses to a healthy one regardless of load",
			[]*Source{src(1, quarantined), src(2, load(3))}, none, noCap, false, 2},
		{"escape hatch: a quarantined sole source is picked",
			[]*Source{src(1, quarantined), src(2, holdsNothing)}, none, noCap, false, 1},
		{"the fallback serves before any quarantined source",
			[]*Source{src(1, quarantined)}, none, noCap, true, fallback},
		{"a clean source serves before the fallback",
			[]*Source{src(1, quarantined), src(2, load(3))}, none, noCap, true, 2},
		{"quarantined sources rank among themselves",
			[]*Source{src(1, quarantined, score(3)), src(2, quarantined, score(2))}, none, noCap, false, 2},
		{"nothing can serve",
			[]*Source{src(1, holdsNothing)}, none, noCap, false, none},
		{"the previous source is kept over a better-ranked one",
			[]*Source{src(1), src(2, load(2), score(1))}, 2, noCap, false, 2},
		{"a previous source that cannot serve the segment is not",
			[]*Source{src(1, load(1)), src(2, holdsNothing)}, 2, noCap, false, 1},
		{"a quarantined previous source loses to a clean one",
			[]*Source{src(1, load(3)), src(2, quarantined)}, 2, noCap, false, 1},
		{"but is kept over a better-ranked quarantined one",
			[]*Source{src(1, quarantined), src(2, quarantined, load(3))}, 2, noCap, false, 2},
		{"and loses to the fallback",
			[]*Source{src(1, quarantined)}, 1, noCap, true, fallback},
		{"a previous source outside the set is not sticky",
			[]*Source{src(1, load(1)), src(2)}, 3, noCap, false, 2},
		{"score outranks load",
			[]*Source{src(1, score(0.5)), src(2, load(3))}, none, noCap, false, 2},
		{"load outranks progress",
			[]*Source{src(1, load(1)), src(2, relaying(0.5))}, none, noCap, false, 2},
		{"a holder outranks a relay at equal load",
			[]*Source{src(1, relaying(0.9)), src(2)}, none, noCap, false, 2},
		{"the further-along relay wins",
			[]*Source{src(1, relaying(0.3)), src(2, relaying(0.6))}, none, noCap, false, 2},
		{"a relay below its threshold cannot serve",
			[]*Source{src(1, relaying(-1))}, none, noCap, false, none},
		{"a source already sending the segment is not asked for a second copy",
			[]*Source{src(1, sending(0)), src(2, load(3))}, none, noCap, false, 2},
		{"sending another segment does not exclude it",
			[]*Source{src(1, sending(1)), src(2, load(3))}, none, noCap, false, 1},
		{"a whole-clip source serves what it does not hold",
			[]*Source{src(1, holdsNothing, wholeClip)}, none, noCap, false, 1},
		{"a source at the upload cap is not in the set",
			[]*Source{src(1, load(2)), src(2, load(1), score(1))}, none, 2, false, 2},
		{"equal in everything: the lowest ID, whatever the build order",
			[]*Source{src(3), src(1), src(2)}, none, noCap, false, 1},
	}
	for _, tc := range cases {
		var set SourceSet
		var prev *Source
		for _, s := range tc.sources {
			if s.ID == tc.prev {
				prev = s
			}
		}
		if tc.prev != none && prev == nil {
			prev = src(tc.prev)
		}
		set.Reset(prev, tc.cap)
		for _, s := range tc.sources {
			set.Add(s)
		}
		if tc.fallback {
			set.Fallback = cdn
		}
		got := none
		switch s := set.Pick(0); {
		case s == cdn:
			got = fallback
		case s != nil:
			got = s.ID
		}
		if got != tc.want {
			t.Errorf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The two stacks describe one situation with different facts — the
// emulation has no score and sees every upload and every duplicate send;
// the node scores, sees only its own downloads, and has no stickiness or
// relays (DESIGN.md §4c's fact table) — and must be given the same
// choice wherever the situation is expressible in both.
func TestStacksAgree(t *testing.T) {
	type remote struct {
		holds       bool
		load        int
		quarantined bool
	}
	asEmulation := func(id int, r remote) *Source {
		s := &Source{ID: id, Have: []bool{r.holds}, Uploads: r.load, Quarantined: r.quarantined,
			Sending: make([]int, 1), Fetching: make([]bool, 1)}
		s.Relay = func(int) float64 { t.Error("relay read for a peer that fetches nothing"); return -1 }
		return s
	}
	asNode := func(id int, r remote) *Source {
		s := &Source{ID: id, Have: []bool{r.holds}, Uploads: r.load, Quarantined: r.quarantined}
		if r.quarantined {
			s.Score = 4 // what put it there
		}
		return s
	}
	for name, tc := range map[string]struct {
		remotes []remote
		want    int
	}{
		"least loaded holder":           {[]remote{{true, 2, false}, {true, 1, false}, {false, 0, false}}, 1},
		"clean over idle quarantined":   {[]remote{{true, 0, true}, {true, 3, false}}, 1},
		"escape hatch":                  {[]remote{{true, 1, true}, {false, 0, false}}, 0},
		"equals break on lowest id":     {[]remote{{false, 0, false}, {true, 1, false}, {true, 1, false}}, 1},
		"nobody holds it":               {[]remote{{false, 0, false}, {false, 0, true}}, -1},
		"least loaded of the penalised": {[]remote{{true, 2, true}, {true, 1, true}}, 1},
	} {
		for stack, facts := range map[string]func(int, remote) *Source{"emulation": asEmulation, "node": asNode} {
			var set SourceSet
			set.Reset(nil, 0)
			for id, r := range tc.remotes {
				set.Add(facts(id, r))
			}
			got := -1
			if s := set.Pick(0); s != nil {
				got = s.ID
			}
			if got != tc.want {
				t.Errorf("%s, as %s facts: picked %d, want %d", name, stack, got, tc.want)
			}
		}
	}
}

// fillAll runs one fill the way a driver does and returns the segments
// launched with their source IDs, the number of selections made and the
// last selection's segment and cut flag.
type filled struct {
	segs, from []int
	selections int
	lastSeg    int
	cut        bool
	blocked    bool
}

func fillAll(set *SourceSet, pool *Pool, first, target, frontier int) (f filled) {
	f.blocked = set.Fill(pool, first, target, frontier, func(idx int, src *Source, cut bool) {
		f.selections++
		f.lastSeg, f.cut = idx, cut
		if src != nil {
			f.segs, f.from = append(f.segs, idx), append(f.from, src.ID)
		}
	})
	return f
}

func TestFill(t *testing.T) {
	have := func(idx ...int) []bool {
		h := make([]bool, 8)
		for _, i := range idx {
			h[i] = true
		}
		return h
	}
	t.Run("a sourceless segment does not consume pool budget", func(t *testing.T) {
		pool := NewPool(have(0))
		pool.Start(2, &Source{})
		var set SourceSet
		set.Reset(nil, 0)
		set.Add(&Source{ID: 1, Have: have(3, 5, 6)})
		f := fillAll(&set, &pool, 1, 3, 7)
		// 1 has no source, 2 is in flight, 4 has no source; the pool of 3
		// holds 2, 3 and 5, and 6 is never looked at.
		if !slices.Equal(f.segs, []int{3, 5}) || !f.blocked || f.cut || pool.InFlight != 3 {
			t.Errorf("%+v, in flight %d, want [3 5] launched, blocked, 3 in flight", f, pool.InFlight)
		}
	})
	t.Run("a full pool selects nothing", func(t *testing.T) {
		pool := NewPool(have())
		pool.Start(0, &Source{})
		var set SourceSet
		set.Reset(nil, 0)
		set.Add(&Source{ID: 1, Have: have(1)})
		if f := fillAll(&set, &pool, 1, 1, 7); f.selections != 0 || f.blocked {
			t.Errorf("a fill of a full pool made a selection: %+v", f)
		}
	})
	t.Run("the scan cuts at the frontier without a whole-clip source", func(t *testing.T) {
		pool := NewPool(have())
		var set SourceSet
		set.Reset(nil, 0)
		set.Add(&Source{ID: 1, Have: have(0)})
		f := fillAll(&set, &pool, 0, 4, 1)
		// 0 launches, 1 is sourceless, 2 is past the frontier: cut.
		if f.selections != 3 || !f.cut || !f.blocked || f.lastSeg != 2 || pool.InFlight != 1 {
			t.Errorf("%+v, want 3 selections, blocked, cut at 2", f)
		}
	})
	t.Run("a whole-clip source or a fallback carries the scan past the frontier", func(t *testing.T) {
		for name, arm := range map[string]func(*SourceSet){
			"whole-clip": func(set *SourceSet) { set.Add(&Source{ID: 1, Have: have(), WholeClip: true}) },
			"fallback":   func(set *SourceSet) { set.Fallback = &Source{ID: -1, WholeClip: true} },
		} {
			pool := NewPool(have())
			var set SourceSet
			set.Reset(nil, 0)
			arm(&set)
			f := fillAll(&set, &pool, 0, 2, -1)
			want := []int{0, 1}
			if name == "fallback" {
				want = []int{0} // one segment at a time; then 1.. are cut
			}
			if !slices.Equal(f.segs, want) {
				t.Errorf("%s: launched %v, want %v", name, f.segs, want)
			}
		}
	})
	t.Run("the set follows the fill's own launches", func(t *testing.T) {
		pool := NewPool(have())
		a := &Source{ID: 1, Have: have(0, 1, 2, 3), Sending: make([]int, 8)}
		b := &Source{ID: 2, Have: have(0, 1, 2, 3), Uploads: 1, Sending: make([]int, 8)}
		var set SourceSet
		set.Reset(nil, 2)
		set.Add(a)
		set.Add(b)
		f := fillAll(&set, &pool, 0, 4, 7)
		// a is idler and then sticky; its second upload fills it, b becomes
		// sticky and is filled by one more; nobody is left for segment 3.
		if !slices.Equal(f.from, []int{1, 1, 2}) || !f.blocked || a.Uploads != 2 || b.Uploads != 2 || a.Sending[1] != 1 {
			t.Errorf("%+v, loads %d/%d, want sources [1 1 2], blocked, loads 2/2", f, a.Uploads, b.Uploads)
		}
		pool.Drop(1, a)
		if a.Uploads != 1 || a.Sending[1] != 0 || !pool.Wanted(1) || pool.InFlight != 2 {
			t.Errorf("after dropping segment 1: load %d sending %d wanted=%v in flight %d", a.Uploads, a.Sending[1], pool.Wanted(1), pool.InFlight)
		}
	})
}

// The cursor and the first wanted segment must equal a scan from zero
// after any sequence of starts, drops and stores.
func TestPoolCursorMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		have := make([]bool, n)
		for i := range have {
			have[i] = r.Intn(3) == 0
		}
		pool := NewPool(have)
		from := &Source{}
		for step := 0; step < 40; step++ {
			idx := r.Intn(n)
			switch {
			case pool.Fetching[idx] && r.Intn(2) == 0:
				pool.Drop(idx, from)
				pool.Store(idx)
			case pool.Fetching[idx]:
				pool.Drop(idx, from)
			case pool.Wanted(idx):
				pool.Start(idx, from)
			}
			missing, wanted, inFlight := n, -1, 0
			for i := n - 1; i >= 0; i-- {
				if !pool.Have[i] {
					missing = i
					if !pool.Fetching[i] {
						wanted = i
					}
				}
				if pool.Fetching[i] {
					inFlight++
				}
			}
			if pool.First != missing || pool.FirstWanted() != wanted || pool.InFlight != inFlight || from.Uploads != inFlight {
				t.Fatalf("trial %d step %d: cursor %d wanted %d in flight %d (source load %d), scan says %d %d %d",
					trial, step, pool.First, pool.FirstWanted(), pool.InFlight, from.Uploads, missing, wanted, inFlight)
			}
		}
	}
}

// The facts one source can have on segment 0, for the exhaustive check.
const (
	factHolds       = 1 << iota
	factFetching    // fetching it, with its relay progress...
	factRelayable   // ...past the driver's threshold (else Relay says none yet)
	factSending     // already sending it to someone
	factWhole       // answers for the whole clip
	factQuarantined //
	factFull        // at the upload cap
)

// factStates lists every situation of one source on one segment that a
// driver can describe: a holder is not fetching what it holds, and a
// source at the cap is out of the set whatever else is true of it.
func factStates() []int {
	states := []int{factHolds | factFull}
	for f := range factFull {
		switch {
		case f&factRelayable != 0 && f&factFetching == 0,
			f&factHolds != 0 && f&factFetching != 0:
			continue
		}
		states = append(states, f)
	}
	return states
}

// factSource is source id in state f.
func factSource(id, f int) *Source {
	s := &Source{ID: id, Have: []bool{f&factHolds != 0}, Fetching: []bool{f&factFetching != 0},
		Sending: make([]int, 1), WholeClip: f&factWhole != 0, Quarantined: f&factQuarantined != 0}
	progress := -1.0
	if f&factRelayable != 0 {
		progress = 0.5
	}
	s.Relay = func(int) float64 { return progress }
	if f&factSending != 0 {
		s.Sending[0], s.Uploads = 1, 1
	}
	if f&factFull != 0 {
		s.Uploads = exhaustiveCap
	}
	return s
}

const exhaustiveCap = 2

// refPick is Pick restated over the full source list: the previous source
// if it is below the cap and can serve clean, else the best of every
// source that can serve under outranks, starting from that previous
// source; the fallback before a quarantined best.
func refPick(sources []*Source, prev, fallback *Source) *Source {
	serves := func(s *Source) (float64, bool) {
		p := s.progress(0)
		return p, s.Uploads < exhaustiveCap && p >= 0
	}
	var ref SourceSet
	var best *Source
	var bestP float64
	if slices.Contains(sources, prev) && prev.Uploads < exhaustiveCap {
		ref.sticky = prev
		if p, ok := serves(prev); ok {
			if !prev.Quarantined {
				return prev
			}
			best, bestP = prev, p
		}
	}
	for _, s := range sources {
		if p, ok := serves(s); ok && ref.outranks(s, p, best, bestP) {
			best, bestP = s, p
		}
	}
	if (best == nil || best.Quarantined) && fallback != nil {
		return fallback
	}
	return best
}

// TestPickExhaustive checks Pick on every combination of facts for up to
// three sources on one segment, every previous source and the fallback
// on and off: through the set's own roster under every order of Add (so
// every slot permutation) and through a driver's roster, the pick must be
// the reference's, and a pick among equals must be the lowest ID.
func TestPickExhaustive(t *testing.T) {
	states := factStates()
	table := make([][]*Source, 3)
	for id := range table {
		for _, f := range states {
			table[id] = append(table[id], factSource(id, f))
		}
	}
	cdn := &Source{ID: -1, WholeClip: true}
	name := func(s *Source) string {
		if s == nil {
			return "none"
		}
		return fmt.Sprint(s.ID)
	}
	orders := [][][]int{permutations(0), permutations(1), permutations(2), permutations(3)}
	var set SourceSet
	combos := 0
	var check func(sources []*Source)
	check = func(sources []*Source) {
		r := NewRoster(sources, exhaustiveCap)
		for _, prev := range append([]*Source{nil}, sources...) {
			for _, fallback := range []*Source{nil, cdn} {
				combos++
				want := refPick(sources, prev, fallback)
				where := func() string {
					var facts []int
					for _, s := range sources {
						f := 0
						for i, g := range table[s.ID] {
							if g == s {
								f = states[i]
							}
						}
						facts = append(facts, f)
					}
					return fmt.Sprintf("facts %b, prev %s, fallback %v", facts, name(prev), fallback != nil)
				}
				set.From(r, -1, prev)
				set.Fallback = fallback
				if got := set.Pick(0); got != want {
					t.Fatalf("%s: roster picks %s, reference %s", where(), name(got), name(want))
				}
				for _, order := range orders[len(sources)] {
					set.Reset(prev, exhaustiveCap)
					for _, i := range order {
						set.Add(sources[i])
					}
					set.Fallback = fallback
					if got := set.Pick(0); got != want {
						t.Fatalf("%s, added in order %v: picks %s, reference %s", where(), order, name(got), name(want))
					}
				}
				if want == nil || want == fallback || want == prev {
					continue
				}
				wp := want.progress(0)
				for _, s := range sources {
					p := s.progress(0)
					if s != want && s != prev && s.Uploads == want.Uploads && p == wp &&
						s.Quarantined == want.Quarantined && s.ID < want.ID {
						t.Fatalf("%s: picks %s over its equal %s", where(), name(want), name(s))
					}
				}
			}
		}
		if len(sources) == len(table) {
			return
		}
		for _, s := range table[len(sources)] {
			check(append(sources, s))
		}
	}
	check(nil)
	// Per list of n sources: n+1 previous sources, fallback on and off.
	n := len(states)
	if want := 2 * (1 + 2*n + 3*n*n + 4*n*n*n); combos != want {
		t.Errorf("checked %d combinations, want %d", combos, want)
	}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var all [][]int
	for _, order := range permutations(n - 1) {
		for at := 0; at <= len(order); at++ {
			all = append(all, slices.Insert(slices.Clone(order), at, n-1))
		}
	}
	return all
}
