// Package container defines the on-the-wire segment container and the clip
// manifest. The container wraps a spliced segment's frame index and payload
// with a checksummed, versioned binary header so peers can verify segments
// received from untrusted swarm members; the manifest is the playlist a
// seeder publishes (the HLS-playlist role in the paper's HTTP-streaming
// framing).
package container

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"p2psplice/internal/media"
	"p2psplice/internal/splicer"
)

// Format constants.
const (
	// MagicLen is the length of the container magic.
	MagicLen = 8
	// headerLen is the fixed-size portion after the magic.
	headerLen = 4 + 1 + 4 + 8 + 8
	// frameEntryLen is the per-frame index entry size.
	frameEntryLen = 1 + 4 + 4
	// checksumLen is the SHA-256 trailer length.
	checksumLen = sha256.Size

	// MaxFrames bounds the frame count a decoder will accept, protecting
	// against corrupt or hostile headers.
	MaxFrames = 1 << 20
	// MaxPayload bounds the payload size a decoder will accept (1 GiB).
	MaxPayload = 1 << 30
)

// Magic identifies a v1 segment container.
var Magic = [MagicLen]byte{'P', '2', 'S', 'S', 'E', 'G', 1, 0}

// flag bits.
const flagInsertedIFrame = 1 << 0

// Segment is a decoded container: the transferable unit of the swarm.
type Segment struct {
	// Index is the segment's playback-order position.
	Index int
	// Start is the presentation time of the first frame.
	Start time.Duration
	// InsertedIFrame records duration-splicing keyframe insertion.
	InsertedIFrame bool
	// Frames is the frame index (types, sizes, durations).
	Frames []FrameInfo
	// Payload holds the coded bytes; len(Payload) equals the sum of frame sizes.
	Payload []byte
}

// FrameInfo is one entry of the container's frame index.
type FrameInfo struct {
	Type     media.FrameType
	Bytes    int64
	Duration time.Duration
}

// Build materializes a spliced segment into a container, generating a
// deterministic pseudo-payload from (seed, segment index). Two seeders
// holding the same clip seed produce byte-identical containers, so swarm
// checksums agree.
func Build(seg splicer.Segment, seed int64) (*Segment, error) {
	if err := seg.Validate(); err != nil {
		return nil, err
	}
	out := &Segment{
		Index:          seg.Index,
		Start:          seg.Start,
		InsertedIFrame: seg.InsertedIFrame,
		Frames:         make([]FrameInfo, len(seg.Frames)),
	}
	var total int64
	for i, f := range seg.Frames {
		out.Frames[i] = FrameInfo{Type: f.Type, Bytes: f.Bytes, Duration: f.Duration}
		total += f.Bytes
	}
	if total > MaxPayload {
		return nil, fmt.Errorf("container: segment %d payload %d exceeds limit", seg.Index, total)
	}
	out.Payload = GeneratePayload(seed, seg.Index, int(total))
	return out, nil
}

// encode writes the container to w: magic, header, frame index, payload,
// and a SHA-256 trailer over everything preceding it. It returns the
// SHA-256 of the whole encoding, trailer included — the manifest's
// digest. sha256's Sum does not reset the hash, so the state that
// produced the trailer continues over it: each byte is hashed once.
func encode(w io.Writer, s *Segment) (sum [checksumLen]byte, err error) {
	if len(s.Frames) == 0 {
		return sum, fmt.Errorf("container: segment %d has no frames", s.Index)
	}
	if len(s.Frames) > MaxFrames {
		return sum, fmt.Errorf("container: segment %d has %d frames, limit %d", s.Index, len(s.Frames), MaxFrames)
	}
	var total int64
	for i, f := range s.Frames {
		if f.Bytes <= 0 || f.Bytes > MaxPayload {
			return sum, fmt.Errorf("container: segment %d frame %d has bad size %d", s.Index, i, f.Bytes)
		}
		if !f.Type.Valid() {
			return sum, fmt.Errorf("container: segment %d frame %d has invalid type", s.Index, i)
		}
		total += f.Bytes
	}
	if total != int64(len(s.Payload)) {
		return sum, fmt.Errorf("container: segment %d payload %d bytes, frame index says %d",
			s.Index, len(s.Payload), total)
	}

	h := sha256.New()
	mw := io.MultiWriter(w, h)

	if _, err := mw.Write(Magic[:]); err != nil {
		return sum, fmt.Errorf("container: write magic: %w", err)
	}
	var flags uint8
	if s.InsertedIFrame {
		flags |= flagInsertedIFrame
	}
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(s.Index))
	hdr[4] = flags
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(s.Frames)))
	binary.BigEndian.PutUint64(hdr[9:17], uint64(s.Start))
	binary.BigEndian.PutUint64(hdr[17:25], uint64(len(s.Payload)))
	if _, err := mw.Write(hdr); err != nil {
		return sum, fmt.Errorf("container: write header: %w", err)
	}

	entry := make([]byte, frameEntryLen)
	for i, f := range s.Frames {
		if f.Duration < 0 || f.Duration > time.Duration(1<<32-1) {
			return sum, fmt.Errorf("container: segment %d frame %d duration %v out of range", s.Index, i, f.Duration)
		}
		entry[0] = byte(f.Type)
		binary.BigEndian.PutUint32(entry[1:5], uint32(f.Bytes))
		binary.BigEndian.PutUint32(entry[5:9], uint32(f.Duration))
		if _, err := mw.Write(entry); err != nil {
			return sum, fmt.Errorf("container: write frame index: %w", err)
		}
	}
	if _, err := mw.Write(s.Payload); err != nil {
		return sum, fmt.Errorf("container: write payload: %w", err)
	}
	trailer := h.Sum(nil)
	if _, err := w.Write(trailer); err != nil {
		return sum, fmt.Errorf("container: write checksum: %w", err)
	}
	h.Write(trailer)
	h.Sum(sum[:0]) // appends into sum's array
	return sum, nil
}

// EncodeBytes encodes s into a fresh byte slice.
func EncodeBytes(s *Segment) ([]byte, error) {
	blob, _, err := encodeBytes(s)
	return blob, err
}

// encodeBytes encodes s into a fresh byte slice and returns it with its
// SHA-256.
func encodeBytes(s *Segment) ([]byte, [checksumLen]byte, error) {
	var buf bytes.Buffer
	buf.Grow(MagicLen + headerLen + len(s.Frames)*frameEntryLen + len(s.Payload) + checksumLen)
	sum, err := encode(&buf, s)
	if err != nil {
		return nil, sum, err
	}
	return buf.Bytes(), sum, nil
}

// Decode reads one container from r, verifying the magic and checksum.
func Decode(r io.Reader) (*Segment, error) {
	h := sha256.New()
	tr := io.TeeReader(r, h)

	var magic [MagicLen]byte
	if _, err := io.ReadFull(tr, magic[:]); err != nil {
		return nil, fmt.Errorf("container: read magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("container: bad magic %x", magic)
	}
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(tr, hdr); err != nil {
		return nil, fmt.Errorf("container: read header: %w", err)
	}
	s := &Segment{
		Index:          int(binary.BigEndian.Uint32(hdr[0:4])),
		InsertedIFrame: hdr[4]&flagInsertedIFrame != 0,
		Start:          time.Duration(binary.BigEndian.Uint64(hdr[9:17])),
	}
	frameCount := binary.BigEndian.Uint32(hdr[5:9])
	payloadLen := binary.BigEndian.Uint64(hdr[17:25])
	if frameCount == 0 || frameCount > MaxFrames {
		return nil, fmt.Errorf("container: frame count %d out of range", frameCount)
	}
	if payloadLen > MaxPayload {
		return nil, fmt.Errorf("container: payload %d exceeds limit", payloadLen)
	}

	s.Frames = make([]FrameInfo, frameCount)
	entry := make([]byte, frameEntryLen)
	var total int64
	for i := range s.Frames {
		if _, err := io.ReadFull(tr, entry); err != nil {
			return nil, fmt.Errorf("container: read frame index: %w", err)
		}
		fi := FrameInfo{
			Type:     media.FrameType(entry[0]),
			Bytes:    int64(binary.BigEndian.Uint32(entry[1:5])),
			Duration: time.Duration(binary.BigEndian.Uint32(entry[5:9])),
		}
		if !fi.Type.Valid() {
			return nil, fmt.Errorf("container: frame %d has invalid type %d", i, entry[0])
		}
		if fi.Bytes <= 0 {
			return nil, fmt.Errorf("container: frame %d has non-positive size", i)
		}
		total += fi.Bytes
		s.Frames[i] = fi
	}
	if total != int64(payloadLen) {
		return nil, fmt.Errorf("container: frame index sums to %d, header says %d", total, payloadLen)
	}
	s.Payload = make([]byte, payloadLen)
	if _, err := io.ReadFull(tr, s.Payload); err != nil {
		return nil, fmt.Errorf("container: read payload: %w", err)
	}
	want := h.Sum(nil)
	got := make([]byte, checksumLen)
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("container: read checksum: %w", err)
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("container: checksum mismatch: got %s, want %s",
			hex.EncodeToString(got), hex.EncodeToString(want))
	}
	return s, nil
}

// DecodeBytes decodes a container from b, rejecting trailing garbage.
func DecodeBytes(b []byte) (*Segment, error) {
	r := bytes.NewReader(b)
	s, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("container: %d trailing bytes", r.Len())
	}
	return s, nil
}

// WireSize returns the encoded container size for a segment with the given
// frame count and payload bytes, without materializing it: magic + header +
// frame index + payload + checksum trailer.
func WireSize(frames int, payload int64) int64 {
	return int64(MagicLen+headerLen+frames*frameEntryLen+checksumLen) + payload
}
