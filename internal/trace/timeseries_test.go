package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTimeSeriesWindowing(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	c := ts.Counter("segs")
	g := ts.Gauge("buffered_us")
	h := ts.Histogram("pool_k")

	c.Observe(0, 1)
	c.Observe(999*time.Millisecond, 1) // still window 0
	c.Observe(time.Second, 3)          // window 1 starts exactly at the boundary
	g.Observe(500*time.Millisecond, 40)
	g.Observe(700*time.Millisecond, 10)
	g.Observe(2500*time.Millisecond, 25)
	h.Observe(1500*time.Millisecond, 4)
	h.Observe(1600*time.Millisecond, 8)

	snap := ts.Snap()
	if snap.WindowNanos != int64(time.Second) {
		t.Fatalf("window %d, want 1s", snap.WindowNanos)
	}
	byName := map[string]TSSeriesStat{}
	for _, s := range snap.Series {
		byName[s.Name] = s
	}
	segs := byName["segs"]
	if segs.Kind != TSKindCounter || len(segs.Windows) != 2 {
		t.Fatalf("segs: kind=%s windows=%d, want counter/2", segs.Kind, len(segs.Windows))
	}
	if segs.Windows[0].Count != 2 || segs.Windows[0].Sum != 2 {
		t.Errorf("segs window 0 = %+v, want count=2 sum=2", segs.Windows[0])
	}
	if segs.Windows[1].Count != 1 || segs.Windows[1].Sum != 3 {
		t.Errorf("segs window 1 = %+v, want count=1 sum=3", segs.Windows[1])
	}
	buf := byName["buffered_us"]
	if len(buf.Windows) != 3 {
		t.Fatalf("buffered_us windows=%d, want 3 (dense through window 2)", len(buf.Windows))
	}
	if w := buf.Windows[0]; w.Count != 2 || w.Sum != 50 || w.Min != 10 || w.Max != 40 {
		t.Errorf("buffered_us window 0 = %+v, want count=2 sum=50 min=10 max=40", w)
	}
	if w := buf.Windows[1]; w.Count != 0 || w.Min != 0 || w.Max != 0 {
		t.Errorf("buffered_us window 1 = %+v, want empty", w)
	}
	pool := byName["pool_k"]
	if pool.Kind != TSKindHist || pool.Windows[1].Buckets == nil {
		t.Fatalf("pool_k: kind=%s buckets=%v, want hist with buckets", pool.Kind, pool.Windows[1].Buckets)
	}
	hist := pool.Windows[1].Hist(pool.Name, pool.Scale)
	if q := hist.Quantile(1); q != 8 {
		t.Errorf("pool_k window-1 p100 = %v, want 8", q)
	}
}

func TestTimeSeriesNilAndClamp(t *testing.T) {
	var nilTS *TimeSeries
	nilTS.Counter("x").Observe(0, 1)
	nilTS.Gauge("y").Observe(0, 1)
	nilTS.Histogram("z").Observe(0, 1)
	if snap := nilTS.Snap(); len(snap.Series) != 0 || snap.WindowNanos != 0 {
		t.Fatalf("nil snapshot = %+v, want empty", snap)
	}

	ts := NewTimeSeries(time.Second)
	g := ts.Gauge("g")
	g.Observe(-5*time.Second, 7) // clamps low into window 0
	g.Observe(time.Second, 9)
	s := ts.Snap().Series[0]
	if len(s.Windows) != 2 || s.Windows[0].Min != 7 || s.Windows[1].Max != 9 {
		t.Errorf("windows = %+v, want the low clamp in 0 and 9 in 1", s.Windows)
	}

	// A sub-microsecond remainder is truncated: observations bucket by
	// whole microseconds, and the reported width must say so.
	odd := NewTimeSeries(1500 * time.Nanosecond)
	odd.Gauge("g").Observe(time.Microsecond, 1)
	oddSnap := odd.Snap()
	if oddSnap.WindowNanos != 1000 {
		t.Errorf("1500ns window reported as %dns, want 1000", oddSnap.WindowNanos)
	}
	var text bytes.Buffer
	if err := oddSnap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "window 1µs\n") {
		t.Errorf("WriteText header = %q, want window 1µs", strings.SplitN(text.String(), "\n", 2)[0])
	}
}

// tsTotal is a series' observation count summed over its windows.
func tsTotal(s TSSeriesStat) int64 {
	var n int64
	for _, w := range s.Windows {
		n += w.Count
	}
	return n
}
