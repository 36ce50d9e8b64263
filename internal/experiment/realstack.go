package experiment

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/metrics"
	"p2psplice/internal/peer"
	"p2psplice/internal/shaper"
	"p2psplice/internal/splicer"
	"p2psplice/internal/tracker"
)

// RealStackConfig configures a real-TCP validation run: an in-process
// tracker, a seeder, and N viewing peers over loopback sockets, with
// optional link shaping. It exists to cross-validate the emulation — the
// same splicer, policy, and player code paths run over real TCP and report
// the same metrics.
type RealStackConfig struct {
	// Clip is the video length. Real runs take at least download time plus
	// clip time; keep it short.
	Clip time.Duration
	// Rate is the clip's coded rate in bytes/second.
	Rate int64
	// Seed fixes the synthetic clip.
	Seed int64
	// Splicer cuts the clip. Nil defaults to 2-second duration splicing.
	Splicer splicer.Splicer
	// Viewers is the number of leechers. Must be at least 1.
	Viewers int
	// Policy is the download policy. Nil defaults to core.AdaptivePool.
	Policy core.Policy
	// Shape optionally shapes every node's connections.
	Shape *shaper.Config
	// Timeout bounds the whole run. Zero defaults to 2 minutes.
	Timeout time.Duration
}

// RealStackRun executes the run and returns one playback sample per viewer.
func RealStackRun(cfg RealStackConfig) ([]metrics.PlaybackSample, error) {
	if cfg.Viewers < 1 {
		return nil, fmt.Errorf("experiment: need at least 1 viewer, got %d", cfg.Viewers)
	}
	if cfg.Clip <= 0 {
		return nil, fmt.Errorf("experiment: clip duration must be positive, got %v", cfg.Clip)
	}
	sp := cfg.Splicer
	if sp == nil {
		sp = splicer.DurationSplicer{Target: 2 * time.Second}
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}

	p := DefaultParams()
	p.ClipDuration = cfg.Clip
	if cfg.Rate > 0 {
		p.Encoder.BytesPerSecond = cfg.Rate
	}
	if cfg.Seed != 0 {
		p.VideoSeed = cfg.Seed
	}
	v, err := p.Video()
	if err != nil {
		return nil, err
	}
	segs, err := sp.Splice(v)
	if err != nil {
		return nil, err
	}
	m, blobs, err := container.BuildManifest(container.ClipInfo{
		Duration:       v.Duration(),
		BytesPerSecond: p.Encoder.BytesPerSecond,
		Seed:           p.VideoSeed,
	}, sp.Name(), segs)
	if err != nil {
		return nil, err
	}

	// In-process tracker.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("experiment: tracker listen: %w", err)
	}
	//lint:ignore determinism the real-stack bridge deliberately leaves the deterministic world; the tracker's wall-clock expiry is part of what it measures
	srv := &http.Server{Handler: tracker.NewServer().Handler(), ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 10 * time.Second} // read limits as cmd/tracker sets them
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		_ = srv.Close()
		srvWG.Wait()
	}()
	trk := tracker.NewClient("http://"+ln.Addr().String(), nil)

	nodeCfg := peer.Config{
		Policy:           cfg.Policy,
		AnnounceInterval: 200 * time.Millisecond,
		Shape:            cfg.Shape,
	}
	//lint:ignore determinism real peers time playback on the wall clock by design; RealStackRun exists to compare them against the emulation
	seeder, err := peer.Seed(trk, m, blobs, nodeCfg)
	if err != nil {
		return nil, err
	}
	//lint:ignore determinism shutdown tears down connections in map order; nothing downstream observes the order
	defer seeder.Close()

	var viewers []*peer.Node
	defer func() {
		for _, n := range viewers {
			n.Close() //lint:ignore determinism map-order shutdown, as for the seeder above
		}
	}()
	for i := 0; i < cfg.Viewers; i++ {
		//lint:ignore determinism real peers time playback on the wall clock by design; RealStackRun exists to compare them against the emulation
		n, err := peer.Join(trk, seeder.InfoHash(), nodeCfg)
		if err != nil {
			return nil, err
		}
		viewers = append(viewers, n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out []metrics.PlaybackSample
	for i, n := range viewers {
		if err := n.WaitComplete(ctx); err != nil {
			return nil, fmt.Errorf("experiment: viewer %d: %w", i, err)
		}
	}
	// Downloads are done; playback may still be draining. The paper's
	// metrics are known exactly at this point: no further stalls can occur,
	// so project to the finish just as the emulation does.
	for i, n := range viewers {
		//lint:ignore determinism real playback metrics are wall-clock measurements; that is the comparison RealStackRun reports
		pm := n.Playback()
		out = append(out, metrics.PlaybackSample{
			Peer:       i + 1,
			Startup:    pm.StartupTime,
			Stalls:     pm.Stalls,
			TotalStall: pm.TotalStall,
			Finished:   true,
		})
	}
	return out, nil
}
