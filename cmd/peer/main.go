// Command peer joins a swarm as a viewer: it downloads the clip with the
// chosen pooling policy, "plays" it, and reports startup time and stalls —
// the measurements in the paper's Figures 2-5, on a real network.
//
// Usage:
//
//	peer -tracker http://127.0.0.1:7070 -info-hash HEX
//	     [-policy adaptive|pool-2|pool-4|pool-8] [-listen 127.0.0.1:0]
//	     [-shape-kbps 128] [-shape-latency 25ms] [-progress] [-trace FILE]
//	     [-debug-addr 127.0.0.1:6060]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/debughttp"
	"p2psplice/internal/peer"
	"p2psplice/internal/player"
	"p2psplice/internal/shaper"
	"p2psplice/internal/trace"
	"p2psplice/internal/tracker"
	"p2psplice/internal/wire"
)

// options collects the command-line configuration for run.
type options struct {
	trackerURL string
	infoHash   string
	policyName string
	listen     string
	shapeKBps  int64
	shapeLat   time.Duration
	progress   bool
	timeout    time.Duration
	tracePath  string
	debugAddr  string
}

func main() {
	var o options
	flag.StringVar(&o.trackerURL, "tracker", "http://127.0.0.1:7070", "tracker base URL")
	flag.StringVar(&o.infoHash, "info-hash", "", "swarm info hash (hex)")
	flag.StringVar(&o.policyName, "policy", "adaptive", "download policy: adaptive or pool-N")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:0", "peer listen address")
	flag.Int64Var(&o.shapeKBps, "shape-kbps", 0, "shape each connection to this many kB/s per direction (0 = unshaped)")
	flag.DurationVar(&o.shapeLat, "shape-latency", 0, "setup latency added to each connection")
	flag.BoolVar(&o.progress, "progress", false, "print download progress")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Minute, "abort if not complete after this long")
	flag.StringVar(&o.tracePath, "trace", "", "stream trace events to this file as JSONL and print the counter registry on exit")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address (empty = off)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "peer:", err)
		os.Exit(1)
	}
}

func parsePolicy(name string) (core.Policy, error) {
	if name == "adaptive" {
		return core.AdaptivePool{}, nil
	}
	if k, ok := strings.CutPrefix(name, "pool-"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad pool size in %q", name)
		}
		return core.FixedPool{K: n}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want adaptive or pool-N)", name)
}

func run(o options) error {
	ih, err := wire.ParseInfoHash(o.infoHash)
	if err != nil {
		return err
	}
	policy, err := parsePolicy(o.policyName)
	if err != nil {
		return err
	}
	cfg := peer.Config{ListenAddr: o.listen, Policy: policy, AnnounceInterval: 5 * time.Second}
	if o.shapeKBps > 0 || o.shapeLat > 0 {
		cfg.Shape = &shaper.Config{RateBytesPerSec: o.shapeKBps * 1024, Latency: o.shapeLat}
	}

	// One registry backs both outputs: the -trace exit dump and the
	// /metrics scrape render the same trace.Registry through
	// Registry.Snap, so they cannot disagree.
	var reg *trace.Registry
	if o.tracePath != "" || o.debugAddr != "" {
		reg = trace.NewRegistry()
		cfg.Metrics = reg
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		jw := trace.NewJSONLWriter(f)
		cfg.Trace = trace.New(jw)
		defer func() {
			if err := jw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "peer: trace:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "peer: trace:", err)
			}
			fmt.Println("-- metrics --")
			if err := reg.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "peer: metrics:", err)
			}
		}()
	}
	// The debug endpoint starts before Join so /healthz and /metrics are
	// scrapeable during startup; /readyz stays 503 until the node has
	// joined and holds at least one live connection.
	var joined atomic.Pointer[peer.Node]
	if o.debugAddr != "" {
		dbg, err := debughttp.Start(debughttp.Config{
			Addr:     o.debugAddr,
			Registry: reg,
			Ready: func() error {
				n := joined.Load()
				if n == nil {
					return errors.New("still joining the swarm")
				}
				return n.Ready()
			},
		})
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Println("debug endpoint on http://" + dbg.Addr())
	}

	trk := tracker.NewClient(o.trackerURL, nil)
	node, err := peer.Join(trk, ih, cfg)
	if err != nil {
		return err
	}
	defer node.Close()
	joined.Store(node)

	m := node.Manifest()
	fmt.Printf("joined swarm %s: %d segments, %v clip, policy %s\n",
		ih, len(m.Segments), m.Video.Duration.Round(time.Millisecond), policy.Name())

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()

	if o.progress {
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					st := node.Stats()
					pm := node.Playback()
					fmt.Printf("  %3d/%3d segments, %8d bytes, state=%s pos=%v\n",
						st.SegmentsHeld, len(m.Segments), st.DownloadedBytes, pm.State, pm.Position.Round(time.Second))
				}
			}
		}()
	}

	if err := node.WaitComplete(ctx); err != nil {
		return fmt.Errorf("download incomplete: %w", err)
	}
	pm := node.Playback()
	fmt.Printf("download complete: startup=%v stalls=%d totalStall=%v\n",
		pm.StartupTime.Round(time.Millisecond), pm.Stalls, pm.TotalStall.Round(time.Millisecond))

	// Keep seeding until playback would have finished, then report.
	if pm.State != player.StateFinished {
		remaining := m.Video.Duration - pm.Position
		fmt.Printf("seeding while playback drains (%v remaining)\n", remaining.Round(time.Second))
		select {
		case <-time.After(remaining + time.Second):
		case <-ctx.Done():
		}
		pm = node.Playback()
	}
	fmt.Printf("final: state=%s startup=%v stalls=%d totalStall=%v\n",
		pm.State, pm.StartupTime.Round(time.Millisecond), pm.Stalls, pm.TotalStall.Round(time.Millisecond))
	return nil
}
