// Command splice synthesizes a clip, cuts it with the chosen technique, and
// reports the segment layout — optionally emitting the manifest JSON and an
// HLS media playlist.
//
// Usage:
//
//	splice [-clip 2m] [-seed 42] [-splicing gop|2s|4s|8s|adaptive] [-rate 125000]
//	       [-manifest out.json] [-m3u8 out.m3u8] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/media"
	"p2psplice/internal/splicer"
)

func main() {
	var (
		clip     = flag.Duration("clip", 2*time.Minute, "clip duration")
		seed     = flag.Int64("seed", 42, "synthesis seed")
		name     = flag.String("splicing", "4s", "technique: gop, 2s, 4s, 8s, or adaptive")
		rate     = flag.Int64("rate", 0, "override clip rate in bytes/second")
		manifest = flag.String("manifest", "", "write the manifest JSON to this file")
		playlist = flag.String("m3u8", "", "write an HLS media playlist to this file")
		verbose  = flag.Bool("v", false, "print every segment")
	)
	flag.Parse()
	if err := run(*clip, *seed, *name, *rate, *manifest, *playlist, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "splice:", err)
		os.Exit(1)
	}
}

func pickSplicer(name string) (splicer.Splicer, error) {
	switch name {
	case "gop":
		return splicer.GOPSplicer{}, nil
	case "adaptive":
		return splicer.AdaptiveSplicer{Bandwidth: 256 * 1024, BufferDepth: 4 * time.Second}, nil
	default:
		d, err := time.ParseDuration(name)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("unknown splicing %q (want gop, adaptive, or a duration like 4s)", name)
		}
		return splicer.DurationSplicer{Target: d}, nil
	}
}

func run(clip time.Duration, seed int64, name string, rate int64, manifestPath, playlistPath string, verbose bool) error {
	cfg := media.DefaultEncoderConfig()
	if rate > 0 {
		cfg.BytesPerSecond = rate
	}
	sp, err := pickSplicer(name)
	if err != nil {
		return err
	}
	v, err := media.Synthesize(cfg, clip, seed)
	if err != nil {
		return err
	}
	segs, err := sp.Splice(v)
	if err != nil {
		return err
	}
	st := splicer.ComputeStats(segs)

	fmt.Printf("clip: %v at %d B/s (seed %d), %d frames in %d GOPs, %d bytes\n",
		v.Duration().Round(time.Millisecond), cfg.BytesPerSecond, seed,
		v.FrameCount(), len(v.GOPs), v.TotalBytes())
	fmt.Printf("splicing %q: %s\n", sp.Name(), st)
	if verbose {
		for _, s := range segs {
			flag := " "
			if s.InsertedIFrame {
				flag = "I"
			}
			fmt.Printf("  seg %3d %s start=%8.3fs dur=%6.3fs frames=%4d bytes=%8d\n",
				s.Index, flag, s.Start.Seconds(), s.Duration().Seconds(), len(s.Frames), s.Bytes())
		}
	}

	if manifestPath != "" {
		m, _, err := container.BuildManifest(container.ClipInfo{
			Duration: v.Duration(), BytesPerSecond: cfg.BytesPerSecond, Seed: seed,
		}, sp.Name(), segs)
		if err != nil {
			return err
		}
		f, err := os.Create(manifestPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("manifest written to %s (%d segments)\n", manifestPath, len(m.Segments))
	}

	if playlistPath != "" {
		m, _, err := container.BuildManifest(container.ClipInfo{
			Duration: v.Duration(), BytesPerSecond: cfg.BytesPerSecond, Seed: seed,
		}, sp.Name(), segs)
		if err != nil {
			return err
		}
		f, err := os.Create(playlistPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.WriteM3U8(f, ""); err != nil {
			return err
		}
		fmt.Printf("HLS playlist written to %s\n", playlistPath)
	}
	return nil
}
