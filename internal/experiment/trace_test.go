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
