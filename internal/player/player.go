// Package player models playback of a segmented clip: a playout buffer fed
// by segment-download completions and drained in real time by the playhead.
// It produces the three quantities the paper measures — startup time, stall
// count, and total stall duration — and exposes the buffered-playback
// horizon T that the adaptive pooling formula (Equation 1) consumes.
//
// The player is passive and clock-agnostic: callers supply the current time
// with every call, so the same implementation serves both the discrete-event
// emulation (virtual time) and the real TCP stack (wall time since join).
package player

import (
	"fmt"
	"time"
)

// State is the playback state.
type State uint8

const (
	// StateIdle means Start has not been called.
	StateIdle State = iota
	// StateWaiting means the viewer pressed play and the initial buffer is
	// still filling (the startup period).
	StateWaiting
	// StatePlaying means the playhead is advancing.
	StatePlaying
	// StateStalled means the playhead caught up with the download frontier.
	StateStalled
	// StateFinished means the whole clip has played.
	StateFinished
)

// String returns a short state name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateWaiting:
		return "waiting"
	case StatePlaying:
		return "playing"
	case StateStalled:
		return "stalled"
	case StateFinished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Config configures a Player.
type Config struct {
	// SegmentDurations lists the display duration of every segment in
	// playback order. Must be non-empty with positive entries.
	SegmentDurations []time.Duration
	// ResumeThreshold is the rebuffering depth: after a stall begins,
	// playback resumes only once this much contiguous video is buffered
	// ahead (or the clip tail is fully downloaded). Zero resumes as soon
	// as the next segment arrives. Real players rebuffer a few seconds to
	// avoid stall flapping.
	ResumeThreshold time.Duration
}

// Interval is one closed stall period.
type Interval struct {
	Start time.Duration
	End   time.Duration
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Metrics is a snapshot of the paper's three playback measures.
type Metrics struct {
	// State is the playback state at snapshot time.
	State State
	// StartupTime is the delay from Start to first playback. Zero until
	// playback begins.
	StartupTime time.Duration
	// Stalls counts stall periods, including an in-progress one.
	Stalls int
	// TotalStall sums stall durations, including the in-progress one.
	TotalStall time.Duration
	// StallIntervals lists closed stall periods.
	StallIntervals []Interval
	// Position is the playhead position.
	Position time.Duration
	// FinishedAt is when playback completed (zero if not finished).
	FinishedAt time.Duration
}

// Transition is one playback state change, reported to an observer.
// At is the model time at which the transition took effect — for
// Playing→Stalled that is the (possibly retroactive) moment the playhead
// hit the frontier, not the later call that detected it.
type Transition struct {
	From State
	To   State
	At   time.Duration
}

// Player tracks playback state. It is not safe for concurrent use; the real
// stack serializes access, and the emulation is single-threaded.
type Player struct {
	durations []time.Duration
	prefix    []time.Duration // prefix[i] = total duration of segments [0, i)
	completed []bool
	observer  func(Transition)

	state      State
	resume     time.Duration // rebuffering depth before a stall ends
	contiguous int           // leading completed segments
	pos        time.Duration // playhead position
	last       time.Duration // time of the last state sync
	startedAt  time.Duration
	startup    time.Duration
	stallStart time.Duration
	stalls     []Interval
	finishedAt time.Duration
}

// New returns a Player for the given segment layout.
func New(cfg Config) (*Player, error) {
	if len(cfg.SegmentDurations) == 0 {
		return nil, fmt.Errorf("player: no segments")
	}
	if cfg.ResumeThreshold < 0 {
		return nil, fmt.Errorf("player: negative resume threshold %v", cfg.ResumeThreshold)
	}
	p := &Player{
		durations: append([]time.Duration(nil), cfg.SegmentDurations...),
		completed: make([]bool, len(cfg.SegmentDurations)),
		prefix:    make([]time.Duration, len(cfg.SegmentDurations)+1),
		resume:    cfg.ResumeThreshold,
	}
	for i, d := range p.durations {
		if d <= 0 {
			return nil, fmt.Errorf("player: segment %d has non-positive duration %v", i, d)
		}
		p.prefix[i+1] = p.prefix[i] + d
	}
	return p, nil
}

// SetObserver registers fn to receive every state transition. The
// observer is a pure listener: it runs after the transition is applied
// and must not call back into the Player. Transitions detected lazily
// (stalls are noticed by the next query after the playhead hit the
// frontier) are reported with their retroactive model time. Pass nil to
// remove the observer.
func (p *Player) SetObserver(fn func(Transition)) { p.observer = fn }

// setState applies a state change and notifies the observer.
func (p *Player) setState(to State, at time.Duration) {
	from := p.state
	p.state = to
	if p.observer != nil && from != to {
		p.observer(Transition{From: from, To: to, At: at})
	}
}

// ClipDuration returns the total clip duration.
func (p *Player) ClipDuration() time.Duration { return p.prefix[len(p.durations)] }

// frontier returns the contiguous playable duration.
func (p *Player) frontier() time.Duration { return p.prefix[p.contiguous] }

// Start marks the viewer pressing play at now. Calling Start twice is an error.
func (p *Player) Start(now time.Duration) error {
	if p.state != StateIdle {
		return fmt.Errorf("player: Start called in state %v", p.state)
	}
	p.setState(StateWaiting, now)
	p.startedAt = now
	p.last = now
	// Segments may have arrived before the viewer pressed play.
	if p.contiguous > 0 {
		p.startup = 0
		p.setState(StatePlaying, now)
	}
	return nil
}

// advanceTo moves the playhead to now.
func (p *Player) advanceTo(now time.Duration) {
	if now < p.last {
		now = p.last // clocks never run backwards; tolerate equal timestamps
	}
	if p.state == StatePlaying {
		newPos := p.pos + (now - p.last)
		clip := p.ClipDuration()
		f := p.frontier()
		switch {
		case newPos >= clip && f >= clip:
			p.finishedAt = p.last + (clip - p.pos)
			p.pos = clip
			p.setState(StateFinished, p.finishedAt)
		case newPos >= f:
			p.stallStart = p.last + (f - p.pos)
			p.pos = f
			p.setState(StateStalled, p.stallStart)
		default:
			p.pos = newPos
		}
	}
	p.last = now
}

// OnSegmentComplete records that segment idx finished downloading at now.
// Duplicate completions are ignored.
func (p *Player) OnSegmentComplete(idx int, now time.Duration) error {
	if idx < 0 || idx >= len(p.completed) {
		return fmt.Errorf("player: segment index %d out of range [0, %d)", idx, len(p.completed))
	}
	p.advanceTo(now)
	if p.completed[idx] {
		return nil
	}
	p.completed[idx] = true
	for p.contiguous < len(p.completed) && p.completed[p.contiguous] {
		p.contiguous++
	}
	switch p.state {
	case StateWaiting:
		// Like the paper's player, playback starts on the first segment.
		if p.contiguous > 0 {
			p.startup = now - p.startedAt
			p.setState(StatePlaying, now)
		}
	case StateStalled:
		f := p.frontier()
		rebuffered := f-p.pos >= p.resume || f >= p.ClipDuration()
		if f > p.pos && rebuffered {
			if now > p.stallStart {
				p.stalls = append(p.stalls, Interval{Start: p.stallStart, End: now})
			}
			p.setState(StatePlaying, now)
		}
	}
	return nil
}

// Position returns the playhead position at now.
func (p *Player) Position(now time.Duration) time.Duration {
	p.advanceTo(now)
	return p.pos
}

// BufferedAhead returns the buffered playback horizon T at now: how much
// contiguous video beyond the playhead has been downloaded. This is the T
// in the paper's Equation 1.
func (p *Player) BufferedAhead(now time.Duration) time.Duration {
	p.advanceTo(now)
	return p.frontier() - p.pos
}

// NextMissing returns the index of the first segment not yet downloaded,
// or the segment count if everything is downloaded.
func (p *Player) NextMissing() int { return p.contiguous }

// Metrics returns a snapshot of the playback measures at now. An
// in-progress stall contributes to Stalls and TotalStall but not to
// StallIntervals.
func (p *Player) Metrics(now time.Duration) Metrics {
	p.advanceTo(now)
	m := Metrics{
		State:          p.state,
		StartupTime:    p.startup,
		Stalls:         len(p.stalls),
		StallIntervals: append([]Interval(nil), p.stalls...),
		Position:       p.pos,
		FinishedAt:     p.finishedAt,
	}
	for _, iv := range p.stalls {
		m.TotalStall += iv.Duration()
	}
	if p.state == StateStalled && now > p.stallStart {
		m.Stalls++
		m.TotalStall += now - p.stallStart
	}
	return m
}
