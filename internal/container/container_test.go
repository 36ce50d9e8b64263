package container

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/media"
	"p2psplice/internal/splicer"
)

func testSegments(t *testing.T) (*media.Video, []splicer.Segment) {
	t.Helper()
	v, err := media.Synthesize(media.DefaultEncoderConfig(), 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := splicer.DurationSplicer{Target: 4 * time.Second}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	return v, segs
}

func TestBuildAndRoundTrip(t *testing.T) {
	_, segs := testSegments(t)
	for _, sg := range segs {
		cs, err := Build(sg, 1)
		if err != nil {
			t.Fatalf("Build(%d): %v", sg.Index, err)
		}
		if int64(len(cs.Payload)) != sg.Bytes() {
			t.Errorf("segment %d payload %d, want %d", sg.Index, len(cs.Payload), sg.Bytes())
		}
		var d time.Duration
		for _, f := range cs.Frames {
			d += f.Duration
		}
		if d != sg.Duration() {
			t.Errorf("segment %d duration %v, want %v", sg.Index, d, sg.Duration())
		}
		blob, err := EncodeBytes(cs)
		if err != nil {
			t.Fatalf("Encode(%d): %v", sg.Index, err)
		}
		got, err := DecodeBytes(blob)
		if err != nil {
			t.Fatalf("Decode(%d): %v", sg.Index, err)
		}
		if got.Index != cs.Index || got.Start != cs.Start || got.InsertedIFrame != cs.InsertedIFrame {
			t.Errorf("segment %d header round-trip mismatch: %+v vs %+v", sg.Index, got, cs)
		}
		if len(got.Frames) != len(cs.Frames) {
			t.Fatalf("segment %d frame count %d, want %d", sg.Index, len(got.Frames), len(cs.Frames))
		}
		for i := range got.Frames {
			if got.Frames[i] != cs.Frames[i] {
				t.Errorf("segment %d frame %d mismatch", sg.Index, i)
			}
		}
		if !bytes.Equal(got.Payload, cs.Payload) {
			t.Errorf("segment %d payload mismatch", sg.Index)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, segs := testSegments(t)
	cs, err := Build(segs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeBytes(cs)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] ^= 0xFF; return c }},
		{"flipped payload byte", func(b []byte) []byte { c := clone(b); c[len(c)/2] ^= 0x01; return c }},
		{"flipped checksum byte", func(b []byte) []byte { c := clone(b); c[len(c)-1] ^= 0x01; return c }},
		{"truncated", func(b []byte) []byte { return clone(b)[:len(b)-5] }},
		{"trailing garbage", func(b []byte) []byte { return append(clone(b), 0xAB) }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeBytes(tt.mut(blob)); err == nil {
				t.Error("want decode error, got nil")
			}
		})
	}
}

func clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

func TestDecodeRejectsHostileHeader(t *testing.T) {
	// A header claiming a huge frame count must be rejected before any
	// large allocation.
	var buf bytes.Buffer
	buf.Write(Magic[:])
	hdr := make([]byte, headerLen)
	hdr[5], hdr[6], hdr[7], hdr[8] = 0xFF, 0xFF, 0xFF, 0xFF // frameCount
	buf.Write(hdr)
	if _, err := Decode(&buf); err == nil {
		t.Error("want error for hostile frame count")
	}
}

func TestEncodeRejectsBadSegments(t *testing.T) {
	tests := []struct {
		name string
		seg  *Segment
	}{
		{"no frames", &Segment{}},
		{"payload mismatch", &Segment{
			Frames:  []FrameInfo{{Type: media.FrameI, Bytes: 10, Duration: time.Second}},
			Payload: make([]byte, 5),
		}},
		{"invalid frame type", &Segment{
			Frames:  []FrameInfo{{Type: media.FrameType(9), Bytes: 4, Duration: time.Second}},
			Payload: make([]byte, 4),
		}},
		{"non-positive frame size", &Segment{
			Frames:  []FrameInfo{{Type: media.FrameI, Bytes: 0, Duration: time.Second}},
			Payload: nil,
		}},
		{"duration overflow", &Segment{
			Frames:  []FrameInfo{{Type: media.FrameI, Bytes: 4, Duration: time.Duration(1 << 40)}},
			Payload: make([]byte, 4),
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EncodeBytes(tt.seg); err == nil {
				t.Error("want encode error, got nil")
			}
		})
	}
}

func TestGeneratePayloadDeterministic(t *testing.T) {
	a := GeneratePayload(7, 3, 1000)
	b := GeneratePayload(7, 3, 1000)
	if !bytes.Equal(a, b) {
		t.Error("same key produced different payloads")
	}
	c := GeneratePayload(7, 4, 1000)
	if bytes.Equal(a, c) {
		t.Error("different segment index produced identical payload")
	}
	d := GeneratePayload(8, 3, 1000)
	if bytes.Equal(a, d) {
		t.Error("different seed produced identical payload")
	}
	if GeneratePayload(1, 1, 0) != nil {
		t.Error("zero-length payload should be nil")
	}
	if got := len(GeneratePayload(1, 1, 13)); got != 13 {
		t.Errorf("payload length %d, want 13", got)
	}
}

func TestBuildManifestAndVerify(t *testing.T) {
	v, segs := testSegments(t)
	info := ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}
	m, blobs, err := BuildManifest(info, "4s", segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(blobs) != len(segs) {
		t.Fatalf("got %d blobs, want %d", len(blobs), len(segs))
	}
	for i, blob := range blobs {
		if err := m.VerifySegment(i, blob); err != nil {
			t.Errorf("VerifySegment(%d): %v", i, err)
		}
	}
	// Cross-verification must fail.
	if len(blobs) >= 2 {
		if err := m.VerifySegment(0, blobs[1]); err == nil {
			t.Error("verifying wrong blob should fail")
		}
	}
	// A flipped byte must fail even at the right length.
	bad := clone(blobs[0])
	bad[len(bad)/2] ^= 1
	if err := m.VerifySegment(0, bad); err == nil {
		t.Error("verifying corrupted blob should fail")
	}
	if err := m.VerifySegment(-1, blobs[0]); err == nil {
		t.Error("negative index should fail")
	}
	if m.TotalBytes() <= v.TotalBytes() {
		t.Errorf("manifest total %d should exceed source %d (headers + inserted I frames)",
			m.TotalBytes(), v.TotalBytes())
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	v, segs := testSegments(t)
	info := ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}
	m, _, err := BuildManifest(info, "4s", segs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Splicing != m.Splicing || len(got.Segments) != len(m.Segments) {
		t.Error("manifest round-trip mismatch")
	}
	for i := range got.Segments {
		if got.Segments[i] != m.Segments[i] {
			t.Errorf("segment info %d mismatch", i)
		}
	}
}

func TestReadManifestRejectsBadInput(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"unknown field", `{"version":1,"bogus":true}`},
		{"wrong version", `{"version":2,"video":{"duration_ns":1,"bytes_per_second":1,"seed":0},"splicing":"gop","segments":[]}`},
		{"no segments", `{"version":1,"video":{"duration_ns":1,"bytes_per_second":1,"seed":0},"splicing":"gop","segments":[]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadManifest(strings.NewReader(tt.in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestManifestValidateDetails(t *testing.T) {
	v, segs := testSegments(t)
	info := ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}
	fresh := func() *Manifest {
		m, _, err := BuildManifest(info, "4s", segs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mut := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"index gap", func(m *Manifest) { m.Segments[1].Index = 5 }},
		{"start gap", func(m *Manifest) { m.Segments[1].Start += time.Second }},
		{"zero duration", func(m *Manifest) { m.Segments[0].Duration = 0 }},
		{"zero bytes", func(m *Manifest) { m.Segments[0].Bytes = 0 }},
		{"bad checksum hex", func(m *Manifest) { m.Segments[0].SHA256 = "zz" }},
		{"coverage mismatch", func(m *Manifest) { m.Video.Duration += time.Second }},
		{"zero clip duration", func(m *Manifest) { m.Video.Duration = 0 }},
	}
	for _, tt := range mut {
		t.Run(tt.name, func(t *testing.T) {
			m := fresh()
			tt.mut(m)
			if err := m.Validate(); err == nil {
				t.Error("want validation error, got nil")
			}
		})
	}
}

func TestChecksumMatchesManifest(t *testing.T) {
	v, segs := testSegments(t)
	cs, err := Build(segs[0], v.Seed)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeBytes(cs)
	if err != nil {
		t.Fatal(err)
	}
	body, trailer := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		t.Error("the encoded trailer is not the SHA-256 of what precedes it")
	}
	info := ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}
	m, _, err := BuildManifest(info, "4s", segs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(blob); m.Segments[0].SHA256 != hex.EncodeToString(sum[:]) {
		t.Error("the manifest's digest is not the SHA-256 of the encoded segment, trailer included")
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	_, segs := testSegments(t)
	for _, sg := range segs {
		cs, err := Build(sg, 1)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeBytes(cs)
		if err != nil {
			t.Fatal(err)
		}
		want := WireSize(len(sg.Frames), sg.Bytes())
		if int64(len(blob)) != want {
			t.Errorf("segment %d: WireSize = %d, encoded = %d", sg.Index, want, len(blob))
		}
	}
}

func TestWriteM3U8(t *testing.T) {
	v, segs := testSegments(t)
	info := ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}
	m, _, err := BuildManifest(info, "4s", segs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteM3U8(&buf, "http://cdn.example/clip/"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"#EXTM3U", "#EXT-X-VERSION:3", "#EXT-X-TARGETDURATION:",
		"#EXT-X-PLAYLIST-TYPE:VOD", "#EXT-X-ENDLIST",
		"http://cdn.example/clip/0.seg",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("playlist missing %q:\n%s", want, out)
		}
	}
	// One EXTINF per segment, and durations sum to the clip.
	if got := strings.Count(out, "#EXTINF:"); got != len(m.Segments) {
		t.Errorf("%d EXTINF lines, want %d", got, len(m.Segments))
	}
	// Invalid manifests are rejected.
	bad := *m
	bad.Segments = nil
	if err := bad.WriteM3U8(&buf, ""); err == nil {
		t.Error("invalid manifest: want error")
	}
	// Empty base URL yields relative URIs.
	buf.Reset()
	if err := m.WriteM3U8(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n0.seg\n") {
		t.Error("relative URI missing")
	}
}

// serialManifest is BuildManifest's reference: one segment after another,
// each blob hashed whole after encoding.
func serialManifest(info ClipInfo, splicing string, segs []splicer.Segment) (*Manifest, [][]byte, error) {
	m := &Manifest{Version: ManifestVersion, Video: info, Splicing: splicing, Segments: make([]SegmentInfo, len(segs))}
	blobs := make([][]byte, len(segs))
	for i, sg := range segs {
		cs, err := Build(sg, info.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("container: segment %d: %w", i, err)
		}
		blob, err := EncodeBytes(cs)
		if err != nil {
			return nil, nil, fmt.Errorf("container: segment %d: %w", i, err)
		}
		sum := sha256.Sum256(blob)
		m.Segments[i] = SegmentInfo{Index: sg.Index, Start: sg.Start, Duration: sg.Duration(),
			Bytes: int64(len(blob)), SHA256: hex.EncodeToString(sum[:]), InsertedIFrame: sg.InsertedIFrame}
		blobs[i] = blob
	}
	return m, blobs, nil
}

// BuildManifest over GOMAXPROCS workers, with each blob hashed once, is
// the serial reference exactly: the same manifest and blobs, and with
// invalid segments mid-clip the lowest one's error.
func TestBuildManifestMatchesSerial(t *testing.T) {
	v, segs := testSegments(t)
	info := ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}
	bad := slices.Clone(segs)
	bad[2].Frames, bad[len(bad)-1].Frames = nil, nil
	wantM, wantBlobs, _ := serialManifest(info, "4s", segs)
	_, _, wantErr := serialManifest(info, "4s", bad)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		m, blobs, err := BuildManifest(info, "4s", segs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, wantM) || !reflect.DeepEqual(blobs, wantBlobs) {
			t.Errorf("GOMAXPROCS %d: manifest or blobs differ from the serial reference", procs)
		}
		m, blobs, err = BuildManifest(info, "4s", bad)
		if err == nil || err.Error() != wantErr.Error() || m != nil || blobs != nil {
			t.Errorf("GOMAXPROCS %d: got (%v, %d blobs, %v), want (nil, 0 blobs, %v)", procs, m, len(blobs), err, wantErr)
		}
	}
}

// VerifySegments reports the lowest failing index, as a serial loop does.
func TestVerifySegmentsReportsLowestFailure(t *testing.T) {
	v, segs := testSegments(t)
	m, blobs, err := BuildManifest(ClipInfo{Duration: v.Duration(), BytesPerSecond: v.Config.BytesPerSecond, Seed: v.Seed}, "4s", segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySegments(blobs); err != nil {
		t.Fatal(err)
	}
	blobs[1], blobs[3] = blobs[3], blobs[1]
	if err, want := m.VerifySegments(blobs), m.VerifySegment(1, blobs[1]); err == nil || err.Error() != want.Error() {
		t.Errorf("VerifySegments = %v, want %v", err, want)
	}
}
