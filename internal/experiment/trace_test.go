package experiment

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

func tracedParams() Params {
	p := QuickParams()
	p.ClipDuration = 30 * time.Second
	p.Leechers = 4
	return p
}

// TraceDir must be observational only: the same figure, with and without
// artifact collection, produces float-bit-identical values.
func TestTraceDirInert(t *testing.T) {
	bws := []int64{128, 512}

	bare := tracedParams()
	plain, err := bare.Fig2Stalls(bws)
	if err != nil {
		t.Fatal(err)
	}

	traced := tracedParams()
	traced.TraceDir = t.TempDir()
	got, err := traced.Fig2Stalls(bws)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "Fig2Stalls with TraceDir", plain.Values, got.Values)

	// Four series × two bandwidths × one run, one .jsonl per cell and
	// nothing else.
	files, err := os.ReadDir(traced.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * len(bws) * traced.Runs; len(files) != want {
		t.Errorf("%d trace artifacts, want %d", len(files), want)
	}
	for _, f := range files {
		if filepath.Ext(f.Name()) != ".jsonl" {
			t.Errorf("trace artifact %s, want only .jsonl", f.Name())
		}
	}
}

// readTimelines rebuilds the stall timelines of every cell trace in dir.
func readTimelines(t *testing.T, dir string) map[string][]trace.PeerTimeline {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]trace.PeerTimeline, len(files))
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = trace.BuildTimeline(events)
	}
	return out
}

// A quick Figure 2 run must attribute 100% of the stalls it traces: every
// stall in every cell's rebuilt timeline names a cause.
func TestFigure2TraceAttribution(t *testing.T) {
	p := tracedParams()
	p.TraceDir = t.TempDir()
	// The low end of the bandwidth axis, where Figure 2 actually stalls.
	if _, err := p.Fig2Stalls([]int64{128}); err != nil {
		t.Fatal(err)
	}

	total := 0
	for name, tls := range readTimelines(t, p.TraceDir) {
		for _, tl := range tls {
			total += len(tl.Stalls)
		}
		if un := trace.Unattributed(tls); len(un) != 0 {
			t.Errorf("%s: %d unattributed stalls (first: %+v)", name, len(un), un[0])
		}
	}
	if total == 0 {
		t.Fatal("no stalls traced at 128 kB/s; attribution untested")
	}
}

// TestTraceOneFilePerCell runs every registry figure traced at QuickParams
// into one directory and requires exactly one .jsonl per cell: no two
// cells, within a figure or across figures, may share a cellArtifactStem,
// or the later log silently overwrites the earlier. Each figure's count is
// its rows × x points; a new figure states its own.
func TestTraceOneFilePerCell(t *testing.T) {
	cells := map[string]int{
		"2": 4 * 5, "3": 4 * 5, "4": 3 * 4, "5": 4 * 4, "6": 4 * 5, "table": 0,
		"churn": 4 * 4, "burst": 4 * 3, "adversary": 4 * 4, "ablation": 9 * 3,
	}
	p := QuickParams()
	p.TraceDir = t.TempDir()
	written := 0
	for _, f := range Figures {
		want, ok := cells[f.Key]
		if !ok {
			t.Errorf("figure %q has no cell count in this test", f.Key)
			continue
		}
		if _, err := f.Run(p); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		files, err := filepath.Glob(filepath.Join(p.TraceDir, "*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(files) - written; got != want*p.Runs {
			t.Errorf("%s wrote %d new trace files, want one per cell: %d", f.Name, got, want*p.Runs)
		}
		written = len(files)
	}
}
