package core

import "slices"

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
}

// Store records that segment idx is now held.
func (p *Pool) Store(idx int) {
	p.Have[idx] = true
	p.advance()
}

// SourceSet is the segment-independent half of source eligibility for one
// fill: the uploaders that are present and reachable (the driver's call
// when it builds the set) and below the upload cap (kept current here as
// the fill's own launches load them).
type SourceSet struct {
	cands []*Source
	// prev is the requester's previous source; sticky is prev once it is
	// known to be in the set.
	prev, sticky *Source
	wholeClip    int // members with WholeClip set
	cap          int // the load at which a source leaves the set (0 = never)
	// Fallback, if set, serves any segment no clean member can, once per
	// fill (the hybrid architecture's CDN: one segment at a time).
	Fallback *Source
}

// Reset empties the set for a fill by a requester whose previous source
// was prev (nil for none), with sources full at cap uploads (0 = never).
//
//lint:hotpath
func (t *SourceSet) Reset(prev *Source, cap int) {
	*t = SourceSet{cands: t.cands[:0], prev: prev, cap: cap}
}

// Add admits s unless it is at the upload cap.
//
//lint:hotpath runs per peer per fill that has pool room
func (t *SourceSet) Add(s *Source) {
	if t.cap > 0 && s.Uploads >= t.cap {
		return
	}
	t.cands = append(t.cands, s)
	if s == t.prev {
		t.sticky = s
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
// best-ranked member in one pass. A quarantined member is chosen only when
// no clean one and no fallback can serve — the sole-source escape hatch,
// so a swarm whose remaining sources all misbehaved still drains.
//
//lint:hotpath runs per wanted segment in the pool window
func (t *SourceSet) Pick(idx int) *Source {
	var best *Source
	var bestP float64
	if s := t.sticky; s != nil {
		if p := s.progress(idx); p >= 0 {
			if !s.Quarantined {
				return s
			}
			best, bestP = s, p
		}
	}
	for _, s := range t.cands {
		if p := s.progress(idx); p >= 0 && t.outranks(s, p, best, bestP) {
			best, bestP = s, p
		}
	}
	if (best == nil || best.Quarantined) && t.Fallback != nil {
		return t.Fallback
	}
	return best
}

// launched brings the set up to date after a download from src started:
// src is now the sticky source, unless the launch used the fallback up or
// filled src.
func (t *SourceSet) launched(src *Source) {
	t.sticky = nil
	switch {
	case src == t.Fallback:
		t.Fallback = nil
	case t.cap == 0 || src.Uploads < t.cap:
		t.sticky = src
	default:
		i := slices.Index(t.cands, src)
		t.cands = slices.Delete(t.cands, i, i+1)
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
		if !cut {
			src = t.Pick(idx)
		}
		visit(idx, src, cut)
		if src != nil {
			pool.Start(idx, src)
			t.launched(src)
			continue
		}
		blocked = true
		if cut {
			break
		}
	}
	return blocked
}
