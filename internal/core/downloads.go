package core

import (
	"time"

	"p2psplice/internal/player"
	"p2psplice/internal/reputation"
	"p2psplice/internal/trace"
)

// The download lifecycle: Eq. 1's k for a downloader's pool, and what
// happens to each of the k downloads between the scheduler's choice and its
// end. Both stacks keep one Downloads; only their I/O (netem flows and serve
// timers, blocks and conns) stays per stack. Every pool is sized in Fill,
// every download ends in End, and every source charge is Charge.

// Flight is one segment download in flight. Times are on the
// downloader's clock.
type Flight struct {
	Src *Source
	// Started is the launch; Last is when bytes last arrived (Started
	// until any do), the last byte's time once the flight is Done.
	Started, Last time.Duration
	// Received counts the bytes delivered so far, of Size.
	Received, Size int64
}

// Done reports that the flight's last byte has arrived: its segment is
// being verified, and the flight ends when that does.
func (f *Flight) Done() bool { return f.Received == f.Size }

// Ending is how a flight ended, which decides what its source is charged.
type Ending uint8

const (
	// Verified: the segment passed verification.
	Verified Ending = iota
	// Rejected: the segment failed verification.
	Rejected
	// Expired: the flight's deadline passed before its last byte.
	Expired
)

// Charge is the one rule for what a flight's source is charged for
// ending e (DESIGN §9.5): a verified segment is a serve at its own rate,
// success unless slower than c's floor; a rejected one a verify failure;
// an expired one a stale HAVE if no byte ever came, else a timeout. A
// flight that ends because its source was lost is charged nothing.
func (f *Flight) Charge(e Ending, c reputation.Config) reputation.Observation {
	switch {
	case e == Verified:
		return c.ServeObservation(f.Size, f.Last-f.Started)
	case e == Rejected:
		return reputation.ObsVerifyFail
	case f.Received == 0:
		return reputation.ObsStaleHave
	}
	return reputation.ObsTimeout
}

// Downloads is one downloader's segments in flight: its scheduler Pool,
// its aggregate Meter (Eq. 1's B), its Policy, its clip and a Flight per
// fetching segment.
// A flight is open from Launch to End, and Fetching in the pool all that
// time, its last byte's verification included.
type Downloads struct {
	Pool  Pool
	Meter AggregateMeter
	// play is synced before a flight ends (nil: no player).
	play    *player.Player
	policy  Policy
	sizes   []int64  // each segment's bytes: a flight's size, Eq. 1's W
	rate    int64    // the clip's mean byte rate, B before the first sample
	flights []Flight // by segment; zero where not in flight
}

// NewDownloads returns the downloads of a downloader that holds have,
// plays on play (nil for none) and sizes its pool by policy, over a clip
// whose segments are sizes bytes and durations long.
func NewDownloads(have []bool, play *player.Player, policy Policy, sizes []int64, durations []time.Duration) *Downloads {
	return &Downloads{Pool: NewPool(have), play: play, policy: policy, sizes: sizes,
		rate: WireRate(sizes, durations), flights: make([]Flight, len(have))}
}

// WireRate is a clip's mean byte rate on the wire, Σ sizes / Σ durations
// over its segments: every client's B before its first sample.
func WireRate(sizes []int64, durations []time.Duration) int64 {
	var bytes int64
	var clip time.Duration
	for i := range sizes {
		bytes, clip = bytes+sizes[i], clip+durations[i]
	}
	return int64(float64(bytes) / clip.Seconds())
}

// Bandwidth is B as the meter estimates it, the clip's mean byte rate
// (Σ bytes / Σ durations) before its first sample.
func (d *Downloads) Bandwidth() int64 { return d.Meter.Estimate(d.rate) }

// Fill is one pool decision: Eq. 1's k from B, T and W, the size of
// first, the first wanted segment; only if fewer than k are in flight,
// prepare gathers the source set and its Fill scans first..frontier, visit
// launching each selection that has a source and ending no flight.
//
//lint:hotpath runs once per fill
func (d *Downloads) Fill(bandwidth int64, buffered time.Duration, first, frontier int, prepare func() *SourceSet, visit func(idx int, src *Source, cut bool)) (f trace.PoolFacts) {
	w := d.sizes[first]
	k := d.policy.PoolSize(bandwidth, buffered, w)
	n := d.Pool.InFlight
	f = trace.PoolFacts{Bandwidth: bandwidth, Buffered: buffered, SegBytes: w, Target: k, InFlight: n}
	if n < k {
		f.Blocked = prepare().Fill(&d.Pool, first, k, frontier, visit)
		f.Launched = d.Pool.InFlight - n
	}
	return f
}

// Flight returns the flight of segment idx, zero if it is not in flight.
// The record is the lifecycle's: callers read it and write nothing.
func (d *Downloads) Flight(idx int) *Flight { return &d.flights[idx] }

// Launch opens the flight of segment idx from src at now: the scheduler's
// Fill has entered it into the pool.
func (d *Downloads) Launch(idx int, src *Source, now time.Duration) {
	d.flights[idx] = Flight{Src: src, Started: now, Last: now, Size: d.sizes[idx]}
	d.Meter.Start(now)
}

// Deliver takes in n more bytes of segment idx, arrived at now.
func (d *Downloads) Deliver(idx int, n int64, now time.Duration) {
	if n <= 0 {
		return
	}
	f := &d.flights[idx]
	f.Received += n
	f.Last = now
	d.Meter.Deliver(n)
}

// End ends the flight of segment idx at now and returns it: the one place
// a download leaves the pool. The player is synced first, so a stall this
// reveals is attributed with the download still in flight (see
// trace.StallFacts); a stored segment becomes held in the same step, so
// nothing after — a charge, a trace record, a refill — sees it neither
// held nor fetching. The meter's window closes at the last byte if it
// came, else now.
func (d *Downloads) End(idx int, now time.Duration, stored bool) Flight {
	if d.play != nil {
		d.play.Position(now)
	}
	f := d.flights[idx]
	d.flights[idx] = Flight{}
	d.Pool.Drop(idx, f.Src)
	if stored {
		d.Pool.Store(idx)
	}
	if f.Done() {
		d.Meter.Finish(f.Last)
	} else {
		d.Meter.Finish(now)
	}
	return f
}

// Lose ends, uncharged, every flight from src at now, in segment order,
// calling release on each first for the stack to stop its I/O, and
// returns how many it ended. A Done flight is spared: its segment is
// being verified and needs src no more.
func (d *Downloads) Lose(src *Source, now time.Duration, release func(idx int)) (lost int) {
	for idx := d.Pool.First; idx < len(d.flights); idx++ {
		if f := &d.flights[idx]; f.Src == src && !f.Done() {
			release(idx)
			d.End(idx, now, false)
			lost++
		}
	}
	return lost
}
