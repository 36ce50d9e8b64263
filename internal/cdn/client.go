package cdn

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/player"
)

// Choice is one variant-selection decision.
type Choice struct {
	// Variant is the chosen splicing.
	Variant string
	// Index is the segment index within the variant.
	Index int
	// Start and Bytes describe the chosen segment.
	Start time.Duration
	Bytes int64
}

// ChooseSegment applies Section IV at one decision point: among variants
// that have a segment boundary exactly at the download frontier, pick the
// longest-duration segment whose size respects W <= B*T. If none satisfies
// the bound (including at startup, when T = 0), the smallest eligible
// segment is returned — the client must fetch something to make progress.
//
// It returns false only when no variant has a boundary at the frontier,
// which cannot happen when variants share a common alignment and the
// frontier only ever advances by chosen segments.
func ChooseSegment(variants []*container.Manifest, names []string, frontier time.Duration,
	bandwidth int64, buffered time.Duration) (Choice, bool) {
	limit := core.MaxSegmentBytes(bandwidth, buffered)
	var candidates []Choice
	for vi, m := range variants {
		for i, s := range m.Segments {
			if s.Start == frontier {
				candidates = append(candidates, Choice{
					Variant: names[vi],
					Index:   i,
					Start:   s.Start,
					Bytes:   s.Bytes,
				})
				break
			}
			if s.Start > frontier {
				break
			}
		}
	}
	if len(candidates) == 0 {
		return Choice{}, false
	}
	// Sort by size ascending; sizes order the same way durations do within
	// one clip. Ties break deterministically by variant name.
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Bytes != candidates[j].Bytes {
			return candidates[i].Bytes < candidates[j].Bytes
		}
		return candidates[i].Variant < candidates[j].Variant
	})
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.Bytes <= limit {
			best = c
		}
	}
	return best, true
}

// Client streams a clip from an origin with duration-adaptive fetching.
type Client struct {
	base string
	http *http.Client

	names     []string
	manifests []*container.Manifest
	// est sees one fetch at a time, so it observes each fetch whole.
	est core.AggregateMeter
	// rate is the clip's wire rate (core.WireRate), B before the first
	// sample.
	rate int64
	// now is the playback clock (monotone since Stream start); injectable
	// for tests.
	now func() time.Duration
}

// NewClient returns a client for the origin at base.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: base, http: httpClient}
}

// Load fetches the variant list and manifests.
func (c *Client) Load(ctx context.Context) error {
	var names []string
	if err := c.getJSON(ctx, "/variants", &names); err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("cdn: origin has no variants")
	}
	var manifests []*container.Manifest
	for _, name := range names {
		body, err := c.get(ctx, "/manifest/"+name)
		if err != nil {
			return err
		}
		m, err := container.ReadManifest(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("cdn: variant %q: %w", name, err)
		}
		manifests = append(manifests, m)
	}
	// All variants must describe the same clip.
	clip := manifests[0].Video.Duration
	for i, m := range manifests {
		if m.Video.Duration != clip {
			return fmt.Errorf("cdn: variant %q covers %v, others %v", names[i], m.Video.Duration, clip)
		}
	}
	segs := manifests[0].Segments
	sizes, durations := make([]int64, len(segs)), make([]time.Duration, len(segs))
	for i, s := range segs {
		sizes[i], durations[i] = s.Bytes, s.Duration
	}
	c.names = names
	c.manifests = manifests
	c.rate = core.WireRate(sizes, durations)
	return nil
}

// StreamResult summarizes a playback session.
type StreamResult struct {
	// Metrics is the playback outcome.
	Metrics player.Metrics
	// Choices records every fetch decision in order.
	Choices []Choice
	// Bytes is the total downloaded volume.
	Bytes int64
}

// Stream plays the whole clip, fetching one segment at a time and switching
// variants at aligned boundaries per the W <= B*T rule. It blocks for the
// real playback duration (download time + clip time); use short clips in
// tests.
func (c *Client) Stream(ctx context.Context) (*StreamResult, error) {
	if len(c.manifests) == 0 {
		return nil, fmt.Errorf("cdn: Load first")
	}
	start := time.Now()
	now := c.now
	if now == nil {
		now = func() time.Duration { return time.Since(start) }
	}
	clip := c.manifests[0].Video.Duration

	// One playhead serves every variant: the player's segments are the
	// slices between the union of all variants' boundaries, and each
	// fetched segment completes the run of slices it covers.
	bounds := boundaries(c.manifests)
	durs := make([]time.Duration, len(bounds)-1)
	for i := range durs {
		durs[i] = bounds[i+1] - bounds[i]
	}
	pl, err := player.New(player.Config{SegmentDurations: durs})
	if err != nil {
		return nil, fmt.Errorf("cdn: %w", err)
	}
	if err := pl.Start(now()); err != nil {
		return nil, err
	}
	res := &StreamResult{}
	var frontier time.Duration
	for frontier < clip {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bandwidth := c.est.Estimate(c.rate)
		choice, ok := ChooseSegment(c.manifests, c.names, frontier, bandwidth, pl.BufferedAhead(now()))
		if !ok {
			return nil, fmt.Errorf("cdn: no variant has a boundary at %v", frontier)
		}
		vi := indexOf(c.names, choice.Variant)
		seg := c.manifests[vi].Segments[choice.Index]

		fetchStart := now()
		blob, err := c.get(ctx, fmt.Sprintf("/segment/%s/%d", choice.Variant, choice.Index))
		if err != nil {
			return nil, err
		}
		if err := c.manifests[vi].VerifySegment(choice.Index, blob); err != nil {
			return nil, fmt.Errorf("cdn: %w", err)
		}
		at := now()
		c.est.Observe(int64(len(blob)), at-fetchStart)
		res.Bytes += int64(len(blob))
		res.Choices = append(res.Choices, choice)

		frontier += seg.Duration
		for i := pl.NextMissing(); i < len(durs) && bounds[i+1] <= frontier; i++ {
			_ = pl.OnSegmentComplete(i, at) // i is in range by construction
		}
	}
	// Everything is downloaded, so no more stalls can occur and projecting
	// past the end of the clip gives the exact playback outcome.
	res.Metrics = pl.Metrics(now() + clip + time.Second)
	return res, nil
}

// boundaries returns the union of every variant's segment boundaries in
// ascending order, from 0 to the end of the clip.
func boundaries(manifests []*container.Manifest) []time.Duration {
	b := []time.Duration{manifests[0].Video.Duration}
	for _, m := range manifests {
		for _, s := range m.Segments {
			b = append(b, s.Start)
		}
	}
	slices.Sort(b)
	return slices.Compact(b)
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("cdn: build request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cdn: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cdn: GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, container.MaxPayload))
	if err != nil {
		return nil, fmt.Errorf("cdn: read %s: %w", path, err)
	}
	return body, nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("cdn: parse %s: %w", path, err)
	}
	return nil
}
