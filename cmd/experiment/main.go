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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/experiment"
	"p2psplice/internal/metrics"
	"p2psplice/internal/shaper"
	"p2psplice/internal/splicer"
	"p2psplice/internal/tracereport"
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
		if err := runRealValidation(); err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			os.Exit(1)
		}
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

// runRealValidation runs the same small workload on the deterministic
// emulator and on real loopback TCP, printing both sets of playback metrics.
// Loopback has no bandwidth shaping by default, so the comparison point uses
// a shaped link on the real side and the matching rate on the emulated side.
func runRealValidation() error {
	const (
		clip    = 8 * time.Second
		rate    = int64(32 * 1024)
		viewers = 3
		shapeKB = int64(128)
	)
	sp := splicer.DurationSplicer{Target: 2 * time.Second}

	// Emulated.
	p := experiment.QuickParams()
	p.ClipDuration = clip
	p.Encoder.BytesPerSecond = rate
	p.Leechers = viewers
	p.Runs = 1
	emu, err := p.Sweep(sp, core.AdaptivePool{}, []int64{shapeKB}, nil)
	if err != nil {
		return err
	}

	// Real TCP over loopback, shaped to the same access rate.
	fmt.Printf("cross-validation: %v clip at %d B/s, %d viewers, 2s segments, %d kB/s links\n",
		clip, rate, viewers, shapeKB)
	start := time.Now()
	samples, err := experiment.RealStackRun(experiment.RealStackConfig{
		Clip:    clip,
		Rate:    rate,
		Seed:    42,
		Splicer: sp,
		Viewers: viewers,
		Shape:   &shaper.Config{RateBytesPerSec: shapeKB * 1024, Latency: 25 * time.Millisecond},
		Timeout: 3 * time.Minute,
	})
	if err != nil {
		return err
	}
	sum := metrics.Summarize(samples)
	fmt.Printf("%-10s | %10s | %12s | %12s\n", "stack", "stalls", "stall sec", "startup sec")
	fmt.Printf("%-10s | %10.1f | %12.1f | %12.1f\n", "emulated", emu[0].Stalls, emu[0].StallSeconds, emu[0].StartupSecs)
	fmt.Printf("%-10s | %10.1f | %12.1f | %12.1f\n", "real TCP", sum.MeanStalls, sum.MeanStallSeconds, sum.MeanStartupSeconds)
	fmt.Printf("(real run wall time %v; the emulated run took milliseconds)\n", time.Since(start).Round(time.Millisecond))
	return nil
}
