package container

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p2psplice/internal/splicer"
)

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// Manifest is the playlist a seeder publishes: clip metadata plus the
// ordered segment index with per-segment checksums. It plays the role the
// HLS playlist plays in the paper's HTTP-streaming framing and the role the
// torrent metainfo plays in its BitTorrent-like protocol.
type Manifest struct {
	Version int      `json:"version"`
	Video   ClipInfo `json:"video"`
	// Splicing is the splicer label that produced the segments ("gop", "4s"...).
	Splicing string        `json:"splicing"`
	Segments []SegmentInfo `json:"segments"`
}

// ClipInfo describes the source clip.
type ClipInfo struct {
	// Duration is the clip display duration in nanoseconds.
	Duration time.Duration `json:"duration_ns"`
	// BytesPerSecond is the clip's coded rate.
	BytesPerSecond int64 `json:"bytes_per_second"`
	// Seed identifies the synthetic clip (reproducibility metadata).
	Seed int64 `json:"seed"`
}

// SegmentInfo is one manifest entry.
type SegmentInfo struct {
	Index int `json:"index"`
	// Start and Duration are display times in nanoseconds.
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Bytes is the full container size on the wire.
	Bytes int64 `json:"bytes"`
	// SHA256 is the hex digest of the encoded container.
	SHA256 string `json:"sha256"`
	// InsertedIFrame records duration-splicing keyframe insertion.
	InsertedIFrame bool `json:"inserted_iframe,omitempty"`
}

// BuildManifest materializes every segment (via Build/Encode) and assembles
// the manifest plus the encoded container blobs, keyed by segment index.
// Segments are built over GOMAXPROCS workers; the result, and the error
// of the lowest failing segment, are those of a serial loop.
func BuildManifest(info ClipInfo, splicing string, segs []splicer.Segment) (*Manifest, [][]byte, error) {
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("container: no segments")
	}
	m := &Manifest{
		Version:  ManifestVersion,
		Video:    info,
		Splicing: splicing,
		Segments: make([]SegmentInfo, len(segs)),
	}
	blobs := make([][]byte, len(segs))
	err := forEach(len(segs), func(i int) error {
		sg := segs[i]
		cs, err := Build(sg, info.Seed)
		if err != nil {
			return fmt.Errorf("container: segment %d: %w", i, err)
		}
		blob, sum, err := encodeBytes(cs)
		if err != nil {
			return fmt.Errorf("container: segment %d: %w", i, err)
		}
		m.Segments[i] = SegmentInfo{
			Index:          sg.Index,
			Start:          sg.Start,
			Duration:       sg.Duration(),
			Bytes:          int64(len(blob)),
			SHA256:         hex.EncodeToString(sum[:]),
			InsertedIFrame: sg.InsertedIFrame,
		}
		blobs[i] = blob
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return m, blobs, nil
}

// forEach runs fn(i) for every i in [0, n) over GOMAXPROCS workers and
// returns the error of the lowest failing i, as a serial loop stopping at
// its first failure would.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the manifest's structural invariants: version, contiguous
// indices and presentation times, positive sizes, well-formed checksums.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("container: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if len(m.Segments) == 0 {
		return fmt.Errorf("container: manifest has no segments")
	}
	if m.Video.Duration <= 0 {
		return fmt.Errorf("container: manifest clip duration %v", m.Video.Duration)
	}
	var at time.Duration
	for i, s := range m.Segments {
		if s.Index != i {
			return fmt.Errorf("container: manifest segment %d has index %d", i, s.Index)
		}
		if s.Start != at {
			return fmt.Errorf("container: manifest segment %d starts at %v, want %v", i, s.Start, at)
		}
		if s.Duration <= 0 {
			return fmt.Errorf("container: manifest segment %d has duration %v", i, s.Duration)
		}
		if s.Bytes <= 0 {
			return fmt.Errorf("container: manifest segment %d has size %d", i, s.Bytes)
		}
		if b, err := hex.DecodeString(s.SHA256); err != nil || len(b) != sha256.Size {
			return fmt.Errorf("container: manifest segment %d has bad checksum %q", i, s.SHA256)
		}
		at += s.Duration
	}
	if at != m.Video.Duration {
		return fmt.Errorf("container: manifest segments cover %v, want %v", at, m.Video.Duration)
	}
	return nil
}

// TotalBytes returns the sum of all segment container sizes.
func (m *Manifest) TotalBytes() int64 {
	var n int64
	for _, s := range m.Segments {
		n += s.Bytes
	}
	return n
}

// VerifySegment checks an encoded container blob against manifest entry idx.
func (m *Manifest) VerifySegment(idx int, blob []byte) error {
	if idx < 0 || idx >= len(m.Segments) {
		return fmt.Errorf("container: segment index %d out of range", idx)
	}
	want := m.Segments[idx]
	if int64(len(blob)) != want.Bytes {
		return fmt.Errorf("container: segment %d is %d bytes, manifest says %d", idx, len(blob), want.Bytes)
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != want.SHA256 {
		return fmt.Errorf("container: segment %d checksum mismatch", idx)
	}
	return nil
}

// VerifySegments checks blobs[i] against manifest entry i for every i,
// over GOMAXPROCS workers, and returns the error of the lowest failing
// index, as a serial VerifySegment loop would.
func (m *Manifest) VerifySegments(blobs [][]byte) error {
	return forEach(len(blobs), func(i int) error { return m.VerifySegment(i, blobs[i]) })
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("container: encode manifest: %w", err)
	}
	return nil
}

// ReadManifest parses and validates a JSON manifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("container: decode manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
