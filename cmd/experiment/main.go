// Command experiment regenerates the paper's evaluation figures on the
// deterministic emulator and prints them as text tables.
//
// Usage:
//
//	experiment [-figure KEY[,KEY...]] [-quick] [-runs N] [-leechers N] [-clip 2m] [-seed N]
//	           [-workers N] [-json] [-csv DIR] [-trace DIR] [-real]
//
// Figure keys come from experiment.Figures; -h lists them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"p2psplice/internal/container"
	"p2psplice/internal/core"
	"p2psplice/internal/experiment"
	"p2psplice/internal/peer"
	"p2psplice/internal/player"
	"p2psplice/internal/shaper"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
	"p2psplice/internal/tracereport"
	"p2psplice/internal/tracker"
)

func main() {
	var (
		figure   = flag.String("figure", allFigures, "comma-separated figures to regenerate: "+allFigures+" (= "+strings.Join(figureKeys(true), ",")+") or any of "+strings.Join(figureKeys(false), ", "))
		quick    = flag.Bool("quick", false, "use the scaled-down quick parameters")
		runs     = flag.Int("runs", 0, "override repetitions per sweep point")
		leechers = flag.Int("leechers", 0, "override the number of viewers")
		clip     = flag.Duration("clip", 0, "override the clip duration")
		seed     = flag.Int64("seed", 0, "override the base seed")
		real     = flag.Bool("real", false, "cross-validate: run one small swarm on BOTH the emulator and real TCP sockets")
		csvDir   = flag.String("csv", "", "also write each figure as CSV into this directory")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial); results are identical either way")
		jsonOut  = flag.Bool("json", false, "emit machine-readable figure results as JSON on stdout instead of text tables")
		traceDir = flag.String("trace", "", "write one JSONL event log per cell, plus the report.json rollup, into this directory; figure values are unchanged")
	)
	flag.Parse()

	if *real {
		fmt.Printf("cross-validation: %v clip at %d B/s, %d viewers, %v segments, %d kB/s links\n",
			realClip, realRate, realViewers, realSegment, realShapeKB)
		v, err := runRealValidation()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			os.Exit(1)
		}
		emu, sum := v.emulated, simpeer.Summarize(v.real)
		fmt.Printf("%-10s | %10s | %12s | %12s\n", "stack", "stalls", "stall sec", "startup sec")
		fmt.Printf("%-10s | %10.1f | %12.1f | %12.1f\n", "emulated", emu.Stalls, emu.StallSeconds, emu.StartupSecs)
		fmt.Printf("%-10s | %10.1f | %12.1f | %12.1f\n", "real TCP", sum.MeanStalls, sum.MeanStallSeconds, sum.MeanStartupSeconds)
		fmt.Printf("(real run wall time %v; the emulated run took milliseconds)\n", v.realWall.Round(time.Millisecond))
		return
	}

	p := experiment.DefaultParams()
	if *quick {
		p = experiment.QuickParams()
	}
	if *runs > 0 {
		p.Runs = *runs
	}
	if *leechers > 0 {
		p.Leechers = *leechers
	}
	if *clip > 0 {
		p.ClipDuration = *clip
	}
	if *seed != 0 {
		p.BaseSeed = *seed
	}
	if *workers != 0 {
		p.Workers = *workers
	}
	if *traceDir != "" {
		p.TraceDir = *traceDir
	}

	figures, err := selectFigures(*figure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(2)
	}
	start := time.Now()
	report := jsonReport{
		Params: jsonParams{
			Leechers:    p.Leechers,
			ClipSeconds: p.ClipDuration.Seconds(),
			Runs:        p.Runs,
			BaseSeed:    p.BaseSeed,
			VideoSeed:   p.VideoSeed,
			Workers:     p.Workers,
		},
	}
	for _, f := range figures {
		res, err := f.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment: %s: %v\n", f.Name, err)
			os.Exit(1)
		}
		if *jsonOut {
			report.Figures = append(report.Figures, jsonFigure{
				Key:    f.Key,
				Title:  res.Figure.Title,
				XLabel: res.Figure.XLabel,
				X:      res.Figure.XValues,
				Series: res.Values,
			})
		} else {
			fmt.Println(res.Figure.Render())
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, f.Key, res); err != nil {
				fmt.Fprintln(os.Stderr, "experiment:", err)
				os.Exit(1)
			}
		}
	}
	if *traceDir != "" {
		if err := writeTraceReport(*traceDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		report.ElapsedMS = time.Since(start).Milliseconds()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("(%d leechers, %v clip, %d runs/point, elapsed %v)\n",
		p.Leechers, p.ClipDuration, p.Runs, time.Since(start).Round(time.Millisecond))
}

// allFigures is the -figure key that expands to the registry's paper set.
const allFigures = "all"

// figureKeys lists the registry's keys in order, or only the paper set's.
func figureKeys(paperOnly bool) []string {
	var keys []string
	for _, f := range experiment.Figures {
		if f.Paper || !paperOnly {
			keys = append(keys, f.Key)
		}
	}
	return keys
}

// selectFigures resolves a -figure value — comma-separated registry keys,
// with "all" standing for the paper set — to registry entries, in the
// order given.
func selectFigures(spec string) ([]experiment.Figure, error) {
	var out []experiment.Figure
	for _, key := range strings.Split(spec, ",") {
		n := len(out)
		for _, f := range experiment.Figures {
			if f.Key == key || (key == allFigures && f.Paper) {
				out = append(out, f)
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("unknown figure %q (want %s or any of %s)",
				key, allFigures, strings.Join(figureKeys(false), ", "))
		}
	}
	return out, nil
}

// jsonReport is the -json artifact: the machine-readable form of every
// regenerated figure, stable enough for a bench trajectory to diff.
type jsonReport struct {
	Params    jsonParams   `json:"params"`
	Figures   []jsonFigure `json:"figures"`
	ElapsedMS int64        `json:"elapsed_ms"`
}

// jsonParams records the experiment scale that produced the figures.
type jsonParams struct {
	Leechers    int     `json:"leechers"`
	ClipSeconds float64 `json:"clip_seconds"`
	Runs        int     `json:"runs"`
	BaseSeed    int64   `json:"base_seed"`
	VideoSeed   int64   `json:"video_seed"`
	Workers     int     `json:"workers"`
}

// jsonFigure is one figure: the x-axis plus the numeric series the text
// table renders (encoding/json sorts the series map, so output is stable).
type jsonFigure struct {
	Key    string               `json:"key"`
	Title  string               `json:"title"`
	XLabel string               `json:"xlabel"`
	X      []string             `json:"x"`
	Series map[string][]float64 `json:"series"`
}

// writeTraceReport makes a sweep's trace directory self-describing: the
// aggregate stall-cause/QoE analysis lands next to the cell logs as
// report.json, the same report `splicetrace report -json DIR` renders.
// The analyzer is deterministic over a deterministic trace set, so the
// file is bit-identical across runs and -workers values.
func writeTraceReport(dir string) error {
	a, err := tracereport.AnalyzeDir(dir)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "report.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracereport.WriteJSON(f, a.Report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}

// writeCSV saves a figure's data under dir/figure-<key>.csv.
func writeCSV(dir, key string, res *experiment.FigureResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "figure-"+key+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Figure.WriteCSV(f); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// The -real workload, run on both stacks: an 8 s clip at 32 KiB/s cut
// into 2 s segments for 3 viewers, every real node shaped to the emulated
// 128 kB/s access link and 25 ms delay.
const (
	realClip    = 8 * time.Second
	realRate    = 32 * 1024 // bytes/s
	realViewers = 3
	realSegment = 2 * time.Second
	realShapeKB = 128
	realLatency = 25 * time.Millisecond
	realTimeout = 3 * time.Minute
)

// validation is the -real comparison: the emulated sweep point, each real
// viewer's playback metrics once its download completed, and the real
// half's wall time.
type validation struct {
	emulated experiment.Point
	real     []player.Metrics
	realWall time.Duration
}

// runRealValidation runs the -real workload on the deterministic emulator
// and then on real loopback TCP: an in-process tracker, a seeder and the
// viewers, every node shaped to the emulated access link. It returns once
// every viewer has downloaded the clip; no stall can occur after that, so
// each viewer's playback metrics are final.
func runRealValidation() (validation, error) {
	sp := splicer.DurationSplicer{Target: realSegment}
	p := experiment.QuickParams()
	p.ClipDuration = realClip
	p.Encoder.BytesPerSecond = realRate
	p.Leechers = realViewers
	p.Runs = 1
	emu, err := p.Sweep(sp, core.AdaptivePool{}, []int64{realShapeKB}, nil)
	if err != nil {
		return validation{}, err
	}
	out := validation{emulated: emu[0]}

	start := time.Now()
	v, err := p.Video()
	if err != nil {
		return out, err
	}
	segs, err := sp.Splice(v)
	if err != nil {
		return out, err
	}
	m, blobs, err := container.BuildManifest(container.ClipInfo{
		Duration:       v.Duration(),
		BytesPerSecond: realRate,
		Seed:           p.VideoSeed,
	}, sp.Name(), segs)
	if err != nil {
		return out, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, fmt.Errorf("tracker listen: %w", err)
	}
	srv := &http.Server{Handler: tracker.NewServer().Handler(), ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 10 * time.Second} // read limits as cmd/tracker sets them
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		_ = srv.Close()
		served.Wait()
	}()
	trk := tracker.NewClient("http://"+ln.Addr().String(), nil)
	cfg := peer.Config{
		Policy:           core.AdaptivePool{},
		AnnounceInterval: 200 * time.Millisecond,
		Shape:            &shaper.Config{RateBytesPerSec: realShapeKB * 1024, Latency: realLatency},
	}
	seeder, err := peer.Seed(trk, m, blobs, cfg)
	if err != nil {
		return out, err
	}
	defer seeder.Close()
	var viewers []*peer.Node
	defer func() {
		for _, n := range viewers {
			n.Close()
		}
	}()
	for range realViewers {
		n, err := peer.Join(trk, seeder.InfoHash(), cfg)
		if err != nil {
			return out, err
		}
		viewers = append(viewers, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), realTimeout)
	defer cancel()
	for i, n := range viewers {
		if err := n.WaitComplete(ctx); err != nil {
			return out, fmt.Errorf("viewer %d: %w", i+1, err)
		}
		out.real = append(out.real, n.Playback())
	}
	out.realWall = time.Since(start)
	return out, nil
}
