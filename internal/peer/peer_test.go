package peer

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/player"
	"p2psplice/internal/splicer"
	"p2psplice/internal/tracker"
	"p2psplice/internal/wire"
)

// testSwarmData builds a small spliced clip with its manifest and blobs.
func testSwarmData(t *testing.T, clip time.Duration, target time.Duration) (*container.Manifest, [][]byte) {
	t.Helper()
	cfg := media.DefaultEncoderConfig()
	cfg.BytesPerSecond = 32 * 1024 // keep test transfers small
	v, err := media.Synthesize(cfg, clip, 7)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := splicer.DurationSplicer{Target: target}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	m, blobs, err := container.BuildManifest(container.ClipInfo{
		Duration: v.Duration(), BytesPerSecond: cfg.BytesPerSecond, Seed: v.Seed,
	}, "2s", segs)
	if err != nil {
		t.Fatal(err)
	}
	return m, blobs
}

func newTracker(t *testing.T) *tracker.Client {
	t.Helper()
	srv := httptest.NewServer(tracker.NewServer().Handler())
	t.Cleanup(srv.Close)
	return tracker.NewClient(srv.URL, srv.Client())
}

func fastConfig() Config {
	return Config{
		AnnounceInterval: 100 * time.Millisecond,
		DownloadTimeout:  5 * time.Second,
	}
}

func TestSwarmDistribution(t *testing.T) {
	m, blobs := testSwarmData(t, 6*time.Second, 2*time.Second)
	trk := newTracker(t)

	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	var leechers []*Node
	for i := 0; i < 2; i++ {
		l, err := Join(trk, seeder.InfoHash(), fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		leechers = append(leechers, l)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, l := range leechers {
		if err := l.WaitComplete(ctx); err != nil {
			t.Fatalf("leecher %d: %v", i, err)
		}
	}
	// Data integrity: every leecher holds byte-identical segments.
	for i, l := range leechers {
		for idx, want := range blobs {
			got, err := l.Store().Block(idx, 0, len(want))
			if err != nil {
				t.Fatalf("leecher %d segment %d: %v", i, idx, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("leecher %d segment %d differs from seed", i, idx)
			}
		}
		st := l.Stats()
		if st.DownloadedBytes == 0 {
			t.Errorf("leecher %d reports no downloaded bytes", i)
		}
	}
	if seeder.Stats().UploadedBytes == 0 {
		t.Error("seeder reports no uploaded bytes")
	}
}

func TestPlaybackMetrics(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	l, err := Join(trk, seeder.InfoHash(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.WaitComplete(ctx); err != nil {
		t.Fatal(err)
	}
	pm := l.Playback()
	if pm.StartupTime <= 0 {
		t.Errorf("startup time = %v, want positive", pm.StartupTime)
	}
	if pm.State == player.StateIdle || pm.State == player.StateWaiting {
		t.Errorf("player state = %v after completion", pm.State)
	}
	// A seeder has no playback.
	if got := seeder.Playback(); got.State != player.StateIdle {
		t.Errorf("seeder playback state = %v, want idle", got.State)
	}
}

func TestLeecherToLeecherRelay(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}

	first, err := Join(trk, seeder.InfoHash(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.WaitComplete(ctx); err != nil {
		t.Fatal(err)
	}
	// The seeder leaves; the only source is now the first leecher.
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := Join(trk, first.InfoHash(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.WaitComplete(ctx); err != nil {
		t.Fatalf("second leecher could not complete from a leecher source: %v", err)
	}
	if first.Stats().UploadedBytes == 0 {
		t.Error("first leecher never uploaded")
	}
}

func TestJoinUnknownSwarm(t *testing.T) {
	trk := newTracker(t)
	var ih wire.InfoHash
	if _, err := Join(trk, ih, fastConfig()); err == nil {
		t.Error("joining unknown swarm: want error")
	}
}

func TestSeedValidation(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	if _, err := Seed(nil, m, blobs, Config{}); err == nil {
		t.Error("nil tracker: want error")
	}
	if _, err := Seed(trk, m, blobs[:1], Config{}); err == nil {
		t.Error("missing blobs: want error")
	}
	bad := make([][]byte, len(blobs))
	copy(bad, blobs)
	bad[0] = append([]byte(nil), blobs[0]...)
	bad[0][10] ^= 0xFF
	if _, err := Seed(trk, m, bad, Config{}); err == nil {
		t.Error("corrupt blob: want error")
	}
	if _, err := Join(nil, wire.InfoHash{}, Config{}); err == nil {
		t.Error("nil tracker join: want error")
	}

	// BuildManifest's blobs are checked against its record of them, a
	// manifest read back from JSON by SHA-256: each path refuses a blob
	// or entry that no longer matches, with the full check's error, and
	// returns no node.
	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	read, err := container.ReadManifest(&js)
	if err != nil {
		t.Fatal(err)
	}
	edited := func(edit func(s *container.SegmentInfo)) *container.Manifest {
		e := *m
		e.Segments = slices.Clone(m.Segments)
		edit(&e.Segments[1])
		return &e
	}
	flip := func(blobs [][]byte) { blobs[1][100] ^= 0x01 }
	for _, tc := range []struct {
		name   string
		m      *container.Manifest
		tamper func(blobs [][]byte) // undone by a second call
	}{
		{"byte flipped in place", m, flip},
		{"edited SHA256", edited(func(s *container.SegmentInfo) { s.SHA256 = m.Segments[0].SHA256 }), nil},
		{"edited Bytes", edited(func(s *container.SegmentInfo) { s.Bytes-- }), nil},
		{"read from JSON, byte flipped", read, flip},
	} {
		if tc.tamper != nil {
			tc.tamper(blobs)
		}
		want := fmt.Sprintf("peer: seed data: %v", tc.m.VerifySegment(1, blobs[1]))
		n, err := Seed(trk, tc.m, blobs, fastConfig())
		if tc.tamper != nil {
			tc.tamper(blobs)
		}
		if n != nil || err == nil || err.Error() != want {
			t.Errorf("%s: Seed returned a node %v and error %v, want no node and %s", tc.name, n != nil, err, want)
		}
		if n != nil {
			n.Close()
		}
	}
	for name, good := range map[string]*container.Manifest{"built": m, "read from JSON": read} {
		n, err := Seed(trk, good, blobs, fastConfig())
		if err != nil {
			t.Errorf("%s, blobs untouched: %v", name, err)
			continue
		}
		n.Close()
	}
}

func TestCloseIdempotent(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seeder.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSeederDoneImmediately(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()
	select {
	case <-seeder.Done():
	default:
		t.Error("seeder should be complete at birth")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := seeder.WaitComplete(ctx); err != nil {
		t.Error(err)
	}
}

func TestManyLeechers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-peer integration test")
	}
	m, blobs := testSwarmData(t, 8*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()
	var leechers []*Node
	for i := 0; i < 5; i++ {
		l, err := Join(trk, seeder.InfoHash(), fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		leechers = append(leechers, l)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, l := range leechers {
		if err := l.WaitComplete(ctx); err != nil {
			t.Fatalf("leecher %d: %v", i, err)
		}
	}
}

func TestNodeAccessorsAndWaitCancel(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()
	if seeder.peerID == (wire.PeerID{}) {
		t.Error("zero peer id")
	}
	if seeder.Manifest() == nil || len(seeder.Manifest().Segments) != len(blobs) {
		t.Error("Manifest accessor wrong")
	}
	// WaitComplete honours context cancellation on an incomplete node.
	viewerStore, err := NewStore(len(blobs))
	if err != nil {
		t.Fatal(err)
	}
	_ = viewerStore
	viewer, err := Join(trk, seeder.InfoHash(), Config{
		AnnounceInterval: time.Hour, // never finds the seeder
		DialTimeout:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Note: the first announce happens immediately, so disconnect by
	// closing right after checking cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = viewer.WaitComplete(ctx) // must return promptly either way
	viewer.Close()
}

func TestConnectErrors(t *testing.T) {
	m, blobs := testSwarmData(t, 4*time.Second, 2*time.Second)
	trk := newTracker(t)
	seeder, err := Seed(trk, m, blobs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()
	if err := seeder.Connect("127.0.0.1:1"); err == nil {
		t.Error("connecting to a dead port: want error")
	}
}
