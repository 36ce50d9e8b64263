// Command splicetrace turns trace directories into answers.
//
// Usage:
//
//	splicetrace report DIR [-json] [-o FILE] [-require-attributed]
//	    Aggregate report: stall-cause breakdown (total/mean/p95), per-file
//	    peer-timeline rollup, flow-utilization summary. -require-attributed
//	    exits nonzero unless the traces hold a playback peer and 100% of
//	    stalls carry a cause.
//
//	splicetrace diff DIR_A DIR_B [-json] [-o FILE]
//	    Compare two trace directories (e.g. adaptive vs fixed-4, faulted
//	    vs clean): stall counts/totals, startup means, per-cause deltas.
//
//	splicetrace cdf DIR [-kind stall|segment|startup] [-o FILE]
//	    CSV cumulative distribution of stall durations, segment transfer
//	    latencies, or startup delays.
//
//	splicetrace scrape URL [-series NAME]...
//	    Fetch URL/healthz and URL/metrics, validate the Prometheus text
//	    exposition, and require each named series to be present (used by
//	    `make metrics-smoke`).
//
//	splicetrace timeseries DIR [-window D] [-peers N] [-csv] [-o FILE]
//	    Rebuild the windowed virtual-time telemetry (buffer occupancy,
//	    in-flight flows, stalled peers, pool targets, completions per
//	    window) from a trace directory, as a summary report or CSV.
//
// Reports are deterministic: the same trace directory yields
// byte-identical output across runs, machines, and the -workers value
// that produced it.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"p2psplice/internal/trace"
	"p2psplice/internal/tracereport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = cmdReport(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "cdf":
		err = cmdCDF(os.Args[2:])
	case "scrape":
		err = cmdScrape(os.Args[2:])
	case "timeseries":
		err = cmdTimeSeries(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "splicetrace: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "splicetrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  splicetrace report DIR [-json] [-o FILE] [-require-attributed]
  splicetrace diff DIR_A DIR_B [-json] [-o FILE]
  splicetrace cdf DIR [-kind stall|segment|startup] [-o FILE]
  splicetrace scrape URL [-series NAME]...
  splicetrace timeseries DIR [-window D] [-peers N] [-csv] [-o FILE]
`)
}

// parseArgs parses fs over args with flags and positionals freely
// interleaved (stdlib flag stops at the first positional), returning
// the positional arguments in order.
func parseArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
	return pos, nil
}

// writeOut renders to -o (or stdout), closing the file and returning
// the first error.
func writeOut(path string, render func(io.Writer) error) error {
	if path == "" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	out := fs.String("o", "", "write to this file instead of stdout")
	requireAttr := fs.Bool("require-attributed", false, "exit nonzero unless a playback peer is traced and every stall names a cause")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("report: want exactly one trace directory, got %d args", len(pos))
	}
	a, err := tracereport.AnalyzeDir(pos[0])
	if err != nil {
		return err
	}
	err = writeOut(*out, func(w io.Writer) error {
		if *asJSON {
			return tracereport.WriteJSON(w, a.Report)
		}
		return tracereport.WriteTable(w, a.Report)
	})
	if err != nil || !*requireAttr {
		return err
	}
	if a.Report.Peers == 0 {
		// Zero stalls out of zero peers is not evidence of attribution.
		return fmt.Errorf("report: no playback peer in %s", pos[0])
	}
	if a.Report.Stalls.Attributed != a.Report.Stalls.Count {
		return fmt.Errorf("report: %d of %d stalls unattributed",
			a.Report.Stalls.Count-a.Report.Stalls.Attributed, a.Report.Stalls.Count)
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the diff as JSON")
	out := fs.String("o", "", "write to this file instead of stdout")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 2 {
		return fmt.Errorf("diff: want two trace directories, got %d args", len(pos))
	}
	a, err := tracereport.AnalyzeDir(pos[0])
	if err != nil {
		return err
	}
	b, err := tracereport.AnalyzeDir(pos[1])
	if err != nil {
		return err
	}
	d := tracereport.Diff(pos[0], a.Report, pos[1], b.Report)
	return writeOut(*out, func(w io.Writer) error {
		if *asJSON {
			return tracereport.WriteDiffJSON(w, d)
		}
		return tracereport.WriteDiffTable(w, d)
	})
}

func cmdCDF(args []string) error {
	fs := flag.NewFlagSet("cdf", flag.ExitOnError)
	kind := fs.String("kind", "stall", "sample set: stall, segment, or startup")
	out := fs.String("o", "", "write to this file instead of stdout")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("cdf: want exactly one trace directory, got %d args", len(pos))
	}
	a, err := tracereport.AnalyzeDir(pos[0])
	if err != nil {
		return err
	}
	var samples []int64
	switch *kind {
	case "stall":
		samples = a.StallUS
	case "segment":
		samples = a.SegmentUS
	case "startup":
		samples = a.StartupUS
	default:
		return fmt.Errorf("cdf: unknown -kind %q (want stall, segment, or startup)", *kind)
	}
	return writeOut(*out, func(w io.Writer) error { return tracereport.WriteCDF(w, *kind, samples) })
}

func cmdTimeSeries(args []string) error {
	fs := flag.NewFlagSet("timeseries", flag.ExitOnError)
	window := fs.Duration("window", time.Second, "aggregation window width (virtual time)")
	peers := fs.Int("peers", 0, "leechers per run for the stall fraction (0 infers per file)")
	asCSV := fs.Bool("csv", false, "emit one CSV row per (series, window) instead of the summary")
	out := fs.String("o", "", "write to this file instead of stdout")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("timeseries: want exactly one trace directory, got %d args", len(pos))
	}
	snap, err := tracereport.BuildTimeSeriesDir(pos[0], tracereport.TimeSeriesOptions{
		Window: *window,
		Peers:  *peers,
	})
	if err != nil {
		return err
	}
	if *asCSV {
		return writeOut(*out, snap.WriteCSV)
	}
	return writeOut(*out, snap.WriteText)
}

// seriesList is a repeatable -series flag.
type seriesList []string

func (s *seriesList) String() string     { return strings.Join(*s, ",") }
func (s *seriesList) Set(v string) error { *s = append(*s, v); return nil }

func cmdScrape(args []string) error {
	fs := flag.NewFlagSet("scrape", flag.ExitOnError)
	var series seriesList
	fs.Var(&series, "series", "require this metric series to exist (repeatable)")
	timeout := fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	pos, err := parseArgs(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("scrape: want exactly one base URL, got %d args", len(pos))
	}
	base := strings.TrimRight(pos[0], "/")
	client := &http.Client{Timeout: *timeout}

	get := func(path string) (string, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s%s: status %d", base, path, resp.StatusCode)
		}
		return string(body), nil
	}

	health, err := get("/healthz")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(health, "ok") {
		return fmt.Errorf("scrape: /healthz = %q, want ok", strings.TrimSpace(health))
	}
	body, err := get("/metrics")
	if err != nil {
		return err
	}
	pm, err := trace.ParsePromText(body)
	if err != nil {
		return fmt.Errorf("scrape: /metrics is not valid exposition: %w", err)
	}
	var missing []string
	for _, name := range series {
		if _, ok := pm.Value(name); !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("scrape: missing series: %s", strings.Join(missing, ", "))
	}
	fmt.Printf("scrape ok: %d samples, %d required series present\n", len(pm.Samples), len(series))
	return nil
}
