package p2psplice

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"p2psplice/internal/experiment"
)

func TestFacadeEndToEndEmulated(t *testing.T) {
	v, err := Synthesize(DefaultEncoderConfig(), 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := SpliceByDuration(v, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSwarm(SwarmConfig{
		Seed:                 1,
		Leechers:             3,
		BandwidthBytesPerSec: 512 * 1024,
		PeerAccessDelay:      25 * time.Millisecond,
		SeederAccessDelay:    25 * time.Millisecond,
		LossRate:             0.05,
		Policy:               AdaptivePool{},
		OracleBandwidth:      true,
		JoinSpread:           2 * time.Second,
	}, SegmentsForSwarm(segs))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Summary().Unfinished; n != 0 {
		t.Errorf("%d peers unfinished", n)
	}
}

func TestFacadeEndToEndRealTCP(t *testing.T) {
	cfg := DefaultEncoderConfig()
	cfg.BytesPerSecond = 32 * 1024
	_, m, blobs, err := BuildSwarmData(cfg, 4*time.Second, 2, DurationSplicer{Target: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewTracker().Handler())
	defer srv.Close()
	trk := NewTrackerClient(srv.URL, srv.Client())

	seeder, err := Seed(trk, m, blobs, NodeConfig{AnnounceInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer seeder.Close()

	leecher, err := Join(trk, seeder.InfoHash(), NodeConfig{AnnounceInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer leecher.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leecher.WaitComplete(ctx); err != nil {
		t.Fatal(err)
	}
	if leecher.Playback().StartupTime <= 0 {
		t.Error("no startup time recorded")
	}
}

func TestFacadeGOPAndAdaptiveSplicers(t *testing.T) {
	v, err := Synthesize(DefaultEncoderConfig(), 20*time.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	gop, err := GOPSplicer{}.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(gop) == 0 {
		t.Error("GOP splicer produced nothing")
	}
	adaptive := AdaptiveSplicer{Bandwidth: 256 * 1024, BufferDepth: 4 * time.Second}
	segs, err := adaptive.Splice(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Error("adaptive splicer produced nothing")
	}
}

func TestFacadeFormulas(t *testing.T) {
	if got := (AdaptivePool{}).PoolSize(512*1024, 4*time.Second, 512*1024); got != 4 {
		t.Errorf("Equation 1 = %d, want 4", got)
	}
}

func TestFacadeCDNAssistType(t *testing.T) {
	cfg := SwarmConfig{CDN: &CDNAssist{BandwidthBytesPerSec: 1024}}
	if cfg.CDN.BandwidthBytesPerSec != 1024 {
		t.Error("CDNAssist alias broken")
	}
}

func TestFacadeTopologyAndParams(t *testing.T) {
	p := experiment.DefaultParams()
	if p.Leechers != 19 || p.ClipDuration != 2*time.Minute {
		t.Errorf("DefaultParams = %+v", p)
	}
	q := QuickParams()
	if q.Leechers >= p.Leechers {
		t.Error("QuickParams should be smaller than the paper's setup")
	}
}
