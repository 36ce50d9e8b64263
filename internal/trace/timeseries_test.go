package trace

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTimeSeriesWindowing(t *testing.T) {
	ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 8})
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

	ts := NewTimeSeries(TimeSeriesConfig{Window: time.Second, MaxWindows: 2})
	g := ts.Gauge("g")
	g.Observe(-5*time.Second, 7) // clamps low into window 0, uncounted
	g.Observe(10*time.Second, 9) // clamps high into the last window, counted
	snap := ts.Snap()
	s := snap.Series[0]
	if s.Clamped != 1 {
		t.Errorf("clamped = %d, want 1", s.Clamped)
	}
	if len(s.Windows) != 2 || s.Windows[0].Min != 7 || s.Windows[1].Max != 9 {
		t.Errorf("windows = %+v, want low clamp in 0 and high clamp in 1", s.Windows)
	}

	// A sub-microsecond remainder is truncated: observations bucket by
	// whole microseconds, and the reported width must say so.
	odd := NewTimeSeries(TimeSeriesConfig{Window: 1500 * time.Nanosecond})
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

// TestTimeSeriesConcurrentDeterministic proves the commutative
// aggregation claim: any interleaving of a fixed observation set
// produces a bit-identical snapshot, CSV included — clamped observations
// too, since 8 windows of 500ms end well before the last at 5s.
func TestTimeSeriesConcurrentDeterministic(t *testing.T) {
	type obs struct {
		at time.Duration
		v  int64
	}
	var all []obs
	for i := 0; i < 2000; i++ {
		all = append(all, obs{at: time.Duration(i*13%5000) * time.Millisecond, v: int64(i*7%900 + 1)})
	}
	run := func(workers int) TSSnapshot {
		ts := NewTimeSeries(TimeSeriesConfig{Window: 500 * time.Millisecond, MaxWindows: 8})
		g := ts.Gauge("g")
		h := ts.Histogram("h")
		var wg sync.WaitGroup
		per := len(all) / workers
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(chunk []obs) {
				defer wg.Done()
				for _, o := range chunk {
					g.Observe(o.at, o.v)
					h.Observe(o.at, o.v)
				}
			}(all[w*per : (w+1)*per])
		}
		wg.Wait()
		return ts.Snap()
	}
	serial, parallel := run(1), run(4)
	for _, s := range serial.Series {
		if s.Clamped == 0 {
			t.Fatalf("series %s clamped nothing; the concurrent clamp path is untested", s.Name)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("snapshot differs between serial and 4-way concurrent recording")
	}
	var csvA, csvB bytes.Buffer
	if err := serial.WriteCSV(&csvA); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvA.Bytes(), csvB.Bytes()) {
		t.Fatal("CSV differs between serial and concurrent recording")
	}
	if csvA.Len() == 0 {
		t.Fatal("empty CSV")
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
