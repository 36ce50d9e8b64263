package tracereport

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

// A trace longer than any window count must rebuild every window: a
// series grows to the last window observed, so 1 500 one-second windows
// each keep their own completions instead of the tail folding into one.
func TestTimeSeriesLongTrace(t *testing.T) {
	const windows = 1500
	var events []trace.Event
	for w := 0; w < windows; w++ {
		for i := 0; i <= w%3; i++ {
			events = append(events, trace.Event{
				At:   time.Duration(w)*time.Second + time.Duration(i)*100*time.Millisecond,
				Peer: 1, Seg: w, Cat: trace.CatPool, Name: trace.EvSegComplete,
				Args: []trace.Arg{trace.Int64(trace.ArgBytes, 1000), trace.Int64(trace.ArgElapsedUS, 1000)},
			})
		}
	}
	b := NewTimeSeriesBuilder(TimeSeriesOptions{Window: time.Second})
	if err := b.AddEvents(events); err != nil {
		t.Fatal(err)
	}
	var segs *trace.TSSeriesStat
	snap := b.Snap()
	for i := range snap.Series {
		if snap.Series[i].Name == trace.TSSegmentsCompleted {
			segs = &snap.Series[i]
		}
	}
	if segs == nil {
		t.Fatalf("no %s series in %+v", trace.TSSegmentsCompleted, snap)
	}
	if len(segs.Windows) != windows {
		t.Fatalf("%d windows, want %d", len(segs.Windows), windows)
	}
	for w, win := range segs.Windows {
		if want := int64(w%3 + 1); win.Count != want || win.Sum != want {
			t.Fatalf("window %d = %+v, want count=sum=%d", w, win, want)
		}
	}
}

// A log reaching past maxWindows is refused whole rather than grown
// into: one far-future line (t_us 1e13 would be about 4 GB of histogram
// windows at 1s) or a window far narrower than the run would otherwise
// size every series. A t_us past time.Duration's range fails the read.
func TestTimeSeriesRefusesFarWindow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window time.Duration
		tUS    int64
		err    string // "" when the log folds
	}{
		{"last window", time.Second, (maxWindows - 1) * 1e6, ""},
		{"past the last window", time.Second, maxWindows * 1e6, "the last a series keeps"},
		{"far future", time.Second, 1e13, "the last a series keeps"},
		{"narrow window", 10 * time.Microsecond, 91e6, "the last a series keeps"},
		{"duration overflow", time.Second, 1 << 62, "overflows a time.Duration"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var log strings.Builder
			for _, at := range []int64{0, tc.tUS} {
				fmt.Fprintf(&log, `{"t_us":%d,"cat":%q,"name":%q,"peer":1,"seg":0,"args":{%q:1000,%q:1000}}`+"\n",
					at, trace.CatPool, trace.EvSegComplete, trace.ArgBytes, trace.ArgElapsedUS)
			}
			if err := os.WriteFile(filepath.Join(dir, "a.jsonl"), []byte(log.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := BuildTimeSeriesDir(dir, TimeSeriesOptions{Window: tc.window})
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) || !strings.Contains(err.Error(), "a.jsonl") {
					t.Fatalf("err = %v, want one naming a.jsonl and %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range snap.Series {
				if s.Name == trace.TSSegmentsCompleted && len(s.Windows) != maxWindows {
					t.Fatalf("%d windows, want %d", len(s.Windows), maxWindows)
				}
			}
		})
	}
}
