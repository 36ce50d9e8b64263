package core

import (
	"math/bits"
	"slices"
)

// The download scheduler: which segments a peer requests next and from
// whom. simpeer.fill and peer.schedule drive it by keeping the plain facts
// below current; every decision — window, per-segment eligibility,
// ranking, the quarantine escape hatch, the frontier cut — is made here
// and only here, without a clock and without allocating.

// Source is what the scheduler knows about one potential uploader. Its
// stack keeps the fields current and leaves a fact it lacks at zero.
type Source struct {
	// Owner is the driver's record of the uploader, for the driver to
	// recover from a chosen source; the scheduler never looks at it.
	Owner any
	// ID breaks ranking ties (lowest wins); unique within a source set.
	ID int
	// Have marks the segments the uploader holds, by reference.
	Have []bool
	// WholeClip marks an uploader that answers for every segment whatever
	// Have says (the seeder; a stale-have liar, which is the attack).
	WholeClip bool
	// Uploads is the uploader's load as the requester can see it.
	Uploads int
	// Sending counts, per segment, the copies the uploader is sending now.
	// It is never asked for a second: that would split the frontier rate,
	// and the requester can chain off the first copy instead.
	Sending []int
	// Score is the uploader's decayed reputation penalty.
	Score float64
	// Quarantined sources serve only when nothing else can.
	Quarantined bool
	// Fetching marks the segments the uploader is itself downloading, by
	// reference, and Relay reports how much of such a segment it can
	// already pass on (a fraction; negative for none yet). Relay is the
	// scheduler's one indirect call, made only where Fetching is set.
	Fetching []bool
	Relay    func(idx int) float64
}

// progress returns how much of segment idx s can serve now: 1 for a
// holder, the relay progress for a non-holder, negative for none.
//
//lint:hotpath runs per candidate source per wanted segment
func (s *Source) progress(idx int) float64 {
	switch {
	case idx < len(s.Sending) && s.Sending[idx] != 0:
		return -1
	case s.Have[idx] || s.WholeClip:
		return 1
	case idx < len(s.Fetching) && s.Fetching[idx]:
		return s.Relay(idx)
	}
	return -1
}

// Pool is one downloader's segment state.
type Pool struct {
	// Have marks the segments held; it only ever gains entries.
	Have []bool
	// Fetching marks the segments in flight, InFlight counts them.
	Fetching []bool
	InFlight int
	// First is the lowest segment not held, len(Have) when none.
	First int
	// roster, when set, is kept current by Start, Drop and Store: slot is
	// this downloader's own slot in it (see Roster.Track).
	roster *Roster
	slot   int
}

// NewPool returns the pool of a downloader that holds have.
func NewPool(have []bool) Pool {
	p := Pool{Have: have, Fetching: make([]bool, len(have))}
	p.advance()
	return p
}

func (p *Pool) advance() {
	for p.First < len(p.Have) && p.Have[p.First] {
		p.First++
	}
}

// Wanted reports whether segment idx is neither held nor in flight.
//
//lint:hotpath
func (p *Pool) Wanted(idx int) bool { return !p.Have[idx] && !p.Fetching[idx] }

// FirstWanted returns the lowest wanted segment, or -1. It is where a
// sequential window starts, and the segment whose size is Eq. 1's W.
//
//lint:hotpath runs at the top of every fill
func (p *Pool) FirstWanted() int {
	for idx := p.First; idx < len(p.Have); idx++ {
		if p.Wanted(idx) {
			return idx
		}
	}
	return -1
}

// Start records that a download of segment idx from src began.
func (p *Pool) Start(idx int, src *Source) {
	p.Fetching[idx] = true
	p.InFlight++
	src.Uploads++
	if src.Sending != nil {
		src.Sending[idx]++
	}
	if r := p.roster; r != nil {
		r.setHold(p.slot, idx, true)
		r.loaded(src)
	}
}

// Drop records that the download of segment idx from src ended, however
// it ended.
func (p *Pool) Drop(idx int, src *Source) {
	p.Fetching[idx] = false
	p.InFlight--
	src.Uploads--
	if src.Sending != nil {
		src.Sending[idx]--
	}
	if r := p.roster; r != nil {
		r.setHold(p.slot, idx, p.Have[idx])
		r.loaded(src)
	}
}

// Store records that segment idx is now held.
func (p *Pool) Store(idx int) {
	p.Have[idx] = true
	if r := p.roster; r != nil {
		r.setHold(p.slot, idx, true)
	}
	p.advance()
}

// Roster indexes sources by slot, so that a pick visits only the sources
// that can have its segment: per segment a Hold row of the slots that hold
// or are fetching it, and per slot the Open (below the upload cap), Whole
// (answers for the whole clip) and Present (may serve at all: the
// driver's call) bits, each a mask of 64-slot words.
//
// A driver's roster (NewRoster) gives each source the slot of its ID and
// is kept current as things happen: the pools it tracks keep Hold and
// Open, the driver marks Present and Whole. A SourceSet filled with Add
// writes its own.
type Roster struct {
	sources []*Source // by slot
	segs    int
	cap     int // the load at which a slot is not Open (0 = never)
	hold    []uint64
	open    []uint64
	whole   []uint64
	present []uint64
}

// NewRoster returns the roster of sources, full at cap uploads (0 =
// never), all present. sources[i].ID must be i: the slot of a source is
// its ID.
func NewRoster(sources []*Source, cap int) *Roster {
	r := &Roster{cap: cap}
	for _, s := range sources {
		r.add(s)
	}
	return r
}

// Track makes p the pool of the source in slot: from now on p's Start,
// Drop and Store keep the roster's Hold and Open bits current.
func (r *Roster) Track(p *Pool, slot int) {
	p.roster, p.slot = r, slot
	for idx := range p.Have {
		r.setHold(slot, idx, p.Have[idx] || p.Fetching[idx])
	}
}

// Mark records whether the source in slot is present and whether it
// answers for the whole clip; the driver calls it whenever either may
// have changed.
func (r *Roster) Mark(slot int, present, whole bool) {
	setBit(r.present, slot, present)
	setBit(r.whole, slot, whole)
}

// Bits reports the roster's facts for slot: whether it holds or fetches
// segment idx, and whether it is open, present and whole-clip.
func (r *Roster) Bits(slot, idx int) (hold, open, present, whole bool) {
	return *r.holdWord(slot, idx)&(1<<(slot&63)) != 0,
		hasBit(r.open, slot), hasBit(r.present, slot), hasBit(r.whole, slot)
}

// reset empties the roster, full at cap uploads.
func (r *Roster) reset(cap int) {
	*r = Roster{sources: r.sources[:0], cap: cap, hold: r.hold[:0],
		open: r.open[:0], whole: r.whole[:0], present: r.present[:0]}
}

// add gives s the next slot, present, and writes its facts into the rows.
//
//lint:hotpath SourceSet.Add's; O(segments)
func (r *Roster) add(s *Source) (slot int) {
	slot = len(r.sources)
	if slot == 0 {
		r.segs = len(s.Have)
	}
	if slot&63 == 0 {
		r.hold = extend(r.hold, r.segs)
		r.open, r.whole, r.present = extend(r.open, 1), extend(r.whole, 1), extend(r.present, 1)
	}
	r.sources = append(r.sources, s)
	row, bit := r.hold[(slot>>6)*r.segs:][:len(s.Have)], uint64(1)<<(slot&63)
	for idx, h := range s.Have {
		if h || idx < len(s.Fetching) && s.Fetching[idx] {
			row[idx] |= bit
		}
	}
	setBit(r.open, slot, r.cap == 0 || s.Uploads < r.cap)
	r.Mark(slot, true, s.WholeClip)
	return slot
}

// slotOf returns the slot of s in a driver's roster, or -1.
//
//lint:hotpath
func (r *Roster) slotOf(s *Source) int {
	if s != nil && uint(s.ID) < uint(len(r.sources)) && r.sources[s.ID] == s {
		return s.ID
	}
	return -1
}

// holdWord is the word of segment idx's Hold row that holds slot's bit:
// the rows are stored word-major, one block of segs words per 64 slots.
func (r *Roster) holdWord(slot, idx int) *uint64 { return &r.hold[(slot>>6)*r.segs+idx] }

func (r *Roster) setHold(slot, idx int, on bool) {
	w := r.holdWord(slot, idx)
	if on {
		*w |= 1 << (slot & 63)
	} else {
		*w &^= 1 << (slot & 63)
	}
}

// loaded re-marks src's Open bit after its load changed.
func (r *Roster) loaded(src *Source) {
	if slot := r.slotOf(src); slot >= 0 {
		setBit(r.open, slot, r.cap == 0 || src.Uploads < r.cap)
	}
}

func setBit(mask []uint64, slot int, on bool) {
	if on {
		mask[slot>>6] |= 1 << (slot & 63)
	} else {
		mask[slot>>6] &^= 1 << (slot & 63)
	}
}

func hasBit(mask []uint64, slot int) bool { return mask[slot>>6]&(1<<(slot&63)) != 0 }

// extend returns s grown by n zero words.
func extend(s []uint64, n int) []uint64 {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// SourceSet is one fill's view of a roster: its members are the sources
// that are present, below the upload cap (kept current here as the fill's
// own launches load them) and not the requester.
type SourceSet struct {
	r       *Roster
	own     *Roster  // Add's roster, reused across Resets
	members []uint64 // a mask over r's slots
	// prev is the requester's previous source; sticky is prev once it is
	// known to be a member, in stickySlot.
	prev, sticky *Source
	stickySlot   int
	wholeClip    int // members with WholeClip set
	cap          int // the load at which a source leaves the set (0 = never)
	// Fallback, if set, serves any segment no clean member can, once per
	// fill (the hybrid architecture's CDN: one segment at a time).
	Fallback *Source
}

// From makes the set the members of r for a fill by the source in slot
// self (-1 for none) whose previous source was prev (nil for none).
// O(words).
//
//lint:hotpath runs once per fill that has pool room
func (t *SourceSet) From(r *Roster, self int, prev *Source) {
	members, whole := t.members[:0], 0
	for w, open := range r.open {
		m := r.present[w] & open
		if w == self>>6 {
			m &^= 1 << (self & 63)
		}
		members = append(members, m)
		whole += bits.OnesCount64(m & r.whole[w])
	}
	*t = SourceSet{r: r, own: t.own, members: members, prev: prev, wholeClip: whole, cap: r.cap}
	if slot := r.slotOf(prev); slot >= 0 && hasBit(members, slot) {
		t.sticky, t.stickySlot = prev, slot
	}
}

// Reset empties the set for a fill by a requester whose previous source
// was prev (nil for none), with sources full at cap uploads (0 = never);
// Add then admits the candidates into the set's own roster.
//
//lint:hotpath
func (t *SourceSet) Reset(prev *Source, cap int) {
	own := t.own
	if own == nil {
		own = new(Roster)
	}
	own.reset(cap)
	*t = SourceSet{r: own, own: own, members: t.members[:0], prev: prev, cap: cap}
}

// Add admits s, in the next slot, unless it is at the upload cap: O(the
// clip's segments).
//
//lint:hotpath runs per source per fill that has pool room
func (t *SourceSet) Add(s *Source) {
	if t.cap > 0 && s.Uploads >= t.cap {
		return
	}
	slot := t.r.add(s)
	if slot&63 == 0 {
		t.members = append(t.members, 0)
	}
	setBit(t.members, slot, true)
	if s == t.prev {
		t.sticky, t.stickySlot = s, slot
	}
	if s.WholeClip {
		t.wholeClip++
	}
}

// outranks is the one ranking order among sources that can serve a
// segment: clean before quarantined, the previous source first among the
// quarantined (a clean one never gets this far; see Pick), then lower
// score, fewer uploads, higher progress, lower ID.
//
//lint:hotpath
func (t *SourceSet) outranks(a *Source, ap float64, b *Source, bp float64) bool {
	switch {
	case b == nil:
		return true
	case a.Quarantined != b.Quarantined:
		return b.Quarantined
	case b == t.sticky:
		return false
	case a.Score != b.Score:
		return a.Score < b.Score
	case a.Uploads != b.Uploads:
		return a.Uploads < b.Uploads
	case ap != bp:
		return ap > bp
	}
	return a.ID < b.ID
}

// Pick chooses the uploader for segment idx, or nil: the previous source
// if it can still serve (stable pairs keep the distribution chain, and
// every peer's depth in it, steady from segment to segment), else the
// best-ranked member among those that hold idx, fetch it or serve the
// whole clip, in one walk of their bits. A quarantined member is chosen
// only when no clean one and no fallback can serve — the sole-source
// escape hatch, so a swarm whose remaining sources all misbehaved still
// drains.
//
//lint:hotpath
func (t *SourceSet) Pick(idx int) *Source {
	src, _ := t.pick(idx)
	return src
}

// pick is Pick that also returns the chosen member's slot (-1 for the
// fallback or none).
//
//lint:hotpath runs per wanted segment in the pool window
func (t *SourceSet) pick(idx int) (*Source, int) {
	var best *Source
	var bestP float64
	bestSlot := -1
	if s := t.sticky; s != nil {
		if p := s.progress(idx); p >= 0 {
			if !s.Quarantined {
				return s, t.stickySlot
			}
			best, bestP, bestSlot = s, p, t.stickySlot
		}
	}
	for w, m := range t.members {
		r := t.r
		for m &= r.hold[w*r.segs+idx] | r.whole[w]; m != 0; m &= m - 1 {
			slot := w<<6 | bits.TrailingZeros64(m)
			s := r.sources[slot]
			if p := s.progress(idx); p >= 0 && t.outranks(s, p, best, bestP) {
				best, bestP, bestSlot = s, p, slot
			}
		}
	}
	if (best == nil || best.Quarantined) && t.Fallback != nil {
		return t.Fallback, -1
	}
	return best, bestSlot
}

// launched brings the set up to date after a download from src, in slot,
// started: src is now the sticky source, unless the launch used the
// fallback up or filled src.
func (t *SourceSet) launched(src *Source, slot int) {
	t.sticky = nil
	switch {
	case src == t.Fallback:
		t.Fallback = nil
	case t.cap == 0 || src.Uploads < t.cap:
		t.sticky, t.stickySlot = src, slot
	default:
		setBit(t.members, slot, false)
		if src.WholeClip {
			t.wholeClip--
		}
	}
}

// Fill tops pool up to target in-flight segments by scanning the wanted
// segments from first (the driver's choice; its size is the W the driver
// fed Eq. 1 for target). A segment without a source consumes no pool
// budget, so a fixed pool pipelines past it. visit sees each selection
// before it takes effect and starts the transfer when src is not nil;
// blocked reports that some wanted segment had no source.
//
// No downloader ever started fetching past frontier (a driver that cannot
// know passes the last segment), so beyond it only whole-clip members and
// the fallback can serve; with neither in the set the scan is cut, having
// concluded what a scan to the end of the clip would.
func (t *SourceSet) Fill(pool *Pool, first, target, frontier int, visit func(idx int, src *Source, cut bool)) (blocked bool) {
	for idx := first; idx < len(pool.Have) && pool.InFlight < target; idx++ {
		if !pool.Wanted(idx) {
			continue
		}
		cut := idx > frontier && t.wholeClip == 0 && t.Fallback == nil
		var src *Source
		slot := -1
		if !cut {
			src, slot = t.pick(idx)
		}
		visit(idx, src, cut)
		if src != nil {
			pool.Start(idx, src)
			t.launched(src, slot)
			continue
		}
		blocked = true
		if cut {
			break
		}
	}
	return blocked
}
