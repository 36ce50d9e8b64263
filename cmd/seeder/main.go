// Command seeder synthesizes a clip, splices it, publishes the manifest to a
// tracker, and serves the segments to the swarm until interrupted.
//
// Usage:
//
//	seeder -tracker http://127.0.0.1:7070 [-listen 127.0.0.1:0] [-clip 2m]
//	       [-seed 42] [-splicing 4s] [-rate 125000]
//	       [-shape-kbps 128] [-shape-latency 25ms]
//	       [-debug-addr 127.0.0.1:6060]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/debughttp"
	"p2psplice/internal/media"
	"p2psplice/internal/peer"
	"p2psplice/internal/shaper"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
)

func main() {
	var (
		trackerURL = flag.String("tracker", "http://127.0.0.1:7070", "tracker base URL")
		listen     = flag.String("listen", "127.0.0.1:0", "peer listen address")
		clip       = flag.Duration("clip", 2*time.Minute, "clip duration")
		seed       = flag.Int64("seed", 42, "synthesis seed")
		splicing   = flag.String("splicing", "4s", "technique: gop or a duration like 4s")
		rate       = flag.Int64("rate", 0, "override clip rate in bytes/second")
		shapeKBps  = flag.Int64("shape-kbps", 0, "shape the access link to this many kB/s (0 = unshaped)")
		shapeLat   = flag.Duration("shape-latency", 0, "access-link setup latency")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()
	if err := run(*trackerURL, *listen, *clip, *seed, *splicing, *rate, *shapeKBps, *shapeLat, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "seeder:", err)
		os.Exit(1)
	}
}

func run(trackerURL, listen string, clip time.Duration, seed int64, splicing string,
	rate, shapeKBps int64, shapeLat time.Duration, debugAddr string) error {
	cfg := media.DefaultEncoderConfig()
	if rate > 0 {
		cfg.BytesPerSecond = rate
	}
	var sp splicer.Splicer
	if splicing == "gop" {
		sp = splicer.GOPSplicer{}
	} else {
		d, err := time.ParseDuration(splicing)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad splicing %q", splicing)
		}
		sp = splicer.DurationSplicer{Target: d}
	}

	v, err := media.Synthesize(cfg, clip, seed)
	if err != nil {
		return err
	}
	segs, err := sp.Splice(v)
	if err != nil {
		return err
	}
	m, blobs, err := container.BuildManifest(container.ClipInfo{
		Duration: v.Duration(), BytesPerSecond: cfg.BytesPerSecond, Seed: seed,
	}, sp.Name(), segs)
	if err != nil {
		return err
	}

	nodeCfg := peer.Config{ListenAddr: listen}
	if shapeKBps > 0 || shapeLat > 0 {
		nodeCfg.Shape = &shaper.Config{RateBytesPerSec: shapeKBps * 1024, Latency: shapeLat}
	}
	if debugAddr != "" {
		reg := trace.NewRegistry()
		nodeCfg.Metrics = reg
		dbg, err := debughttp.Start(debughttp.Config{Addr: debugAddr, Registry: reg})
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Println("debug endpoint on http://" + dbg.Addr())
	}
	trk := tracker.NewClient(trackerURL, nil)
	node, err := peer.Seed(trk, m, blobs, nodeCfg)
	if err != nil {
		return err
	}
	defer node.Close()

	fmt.Printf("seeding %d segments (%s splicing, %d bytes) on %s\n",
		len(m.Segments), sp.Name(), m.TotalBytes(), node.Addr())
	fmt.Printf("info hash: %s\n", node.InfoHash())
	fmt.Println("join with: peer -tracker", trackerURL, "-info-hash", node.InfoHash())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down")
			return nil
		case <-tick.C:
			st := node.Stats()
			fmt.Printf("uploaded %d bytes over %d connections\n", st.UploadedBytes, st.Connections)
		}
	}
}
