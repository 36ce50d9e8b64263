package experiment

import (
	"fmt"
	"sync"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
)

// The five figures used to re-synthesize and re-splice the same clip for
// every series of every sweep — Figures 2 and 3 alone splice the identical
// video eight times. Synthesis and splicing are deterministic functions of
// (encoder config, clip duration, video seed) and the splicer, so this file
// memoizes both process-wide, and concurrent workers that race on a cold
// key synthesize exactly once.
//
// Cached values are shared: the *media.Video is handed out as-is (splicers
// and the swarm treat videos as read-only), while segment-meta slices are
// copied on every lookup so no caller can reach another's backing array.

// videoKey identifies a synthesized clip. media.EncoderConfig is a flat
// comparable struct, so the key is usable directly as a map key.
type videoKey struct {
	enc  media.EncoderConfig
	dur  time.Duration
	seed int64
}

// segKey identifies a spliced segment list: the clip plus the splicer's
// identity (type and configuration, e.g. "splicer.DurationSplicer{Target:4s}").
type segKey struct {
	video     videoKey
	splicerID string
}

// splicerIdentity renders a splicer's type and value as a cache key
// component. Splicers in this repo are value types whose fields fully
// determine their output, so type+value is a complete identity.
func splicerIdentity(sp splicer.Splicer) string {
	return fmt.Sprintf("%T%+v", sp, sp)
}

// memo maps each key to a value computed at most once. Entries are
// created under the mutex and filled through their own sync.Once outside
// it, so concurrent workers that race on a cold key fill it exactly once
// and everyone blocks on the same entry, while distinct keys fill in
// parallel. Errors are memoized like values.
type memo[K comparable, V any] struct {
	mu sync.Mutex // guards m
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns k's value, calling fill on first use.
func (c *memo[K, V]) get(k K, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = fill() })
	return e.v, e.err
}

// videos and spliced are the process-wide memos behind Params.Video and
// Params.Segments. Experiments across figures (and benchmark iterations)
// share them; keys carry every input that determines the output, so
// sharing cannot change results.
var (
	videos  memo[videoKey, *media.Video]
	spliced memo[segKey, []simpeer.SegmentMeta]
)

// cachedVideo returns the memoized clip for k, synthesizing on first use.
func cachedVideo(k videoKey) (*media.Video, error) {
	return videos.get(k, func() (*media.Video, error) { return media.Synthesize(k.enc, k.dur, k.seed) })
}

// cachedSegments returns a fresh copy of the memoized segment metadata for
// k, splicing on first use. The copy keeps callers from aliasing each
// other's slices (SegmentMeta elements are plain values, so a shallow copy
// is a full one).
func cachedSegments(k segKey, sp splicer.Splicer) ([]simpeer.SegmentMeta, error) {
	segs, err := spliced.get(k, func() ([]simpeer.SegmentMeta, error) {
		v, err := cachedVideo(k.video)
		if err != nil {
			return nil, err
		}
		segs, err := sp.Splice(v)
		if err != nil {
			return nil, err
		}
		return SegmentsForSwarm(segs), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]simpeer.SegmentMeta, len(segs))
	copy(out, segs)
	return out, nil
}

// SegmentsForSwarm converts spliced segments to swarm-level metadata,
// with wire sizes accounting for the container framing.
func SegmentsForSwarm(segs []splicer.Segment) []simpeer.SegmentMeta {
	out := make([]simpeer.SegmentMeta, len(segs))
	for i, s := range segs {
		out[i] = simpeer.SegmentMeta{
			Bytes:    container.WireSize(len(s.Frames), s.Bytes()),
			Duration: s.Duration(),
		}
	}
	return out
}

// videoKey builds the cache key for p's clip.
func (p Params) videoKey() videoKey {
	return videoKey{enc: p.Encoder, dur: p.ClipDuration, seed: p.VideoSeed}
}
