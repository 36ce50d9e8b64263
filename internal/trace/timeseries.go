package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TimeSeries adds the time dimension to the telemetry stack: fixed-width
// virtual-time windows, each aggregating the observations that fall
// inside it. End-state registries answer "how bad was it overall"; a
// TimeSeries answers "when" — buffer occupancy over the run, in-flight
// flows per second, the stall fraction as a swarm warms up.
//
// The determinism contract matches the rest of the package (DESIGN.md
// §8): observing reads no clock (every observation carries its own
// virtual timestamp), draws from no RNG, and aggregates only with
// commutative integer operations (sums, counts, CAS min/max, bucket
// increments), so concurrent observers produce bit-identical windows in
// any interleaving. A nil *TimeSeries is valid and hands out no-op
// handles, so instrumented code never branches on whether the layer is
// attached.
//
// Storage is preallocated at registration time: the observe path indexes
// a fixed array and issues atomic adds — zero allocations, zero locks
// (//lint:hotpath; the alloc benchmarks gate it). Observations past the
// last window clamp into it and are counted in Clamped rather than
// silently dropped or, worse, grown into (growth would allocate on the
// hot path and make memory a function of run length).
type TimeSeries struct {
	window     time.Duration
	maxWindows int
	mu         sync.Mutex // guards series; handles update lock-free
	series     map[string]*tsSeries
}

// TimeSeriesConfig sizes a TimeSeries.
type TimeSeriesConfig struct {
	// Window is the aggregation window width in virtual time
	// (default 1s, truncated to whole microseconds, minimum 1µs —
	// windowing runs at the trace layer's microsecond resolution so
	// trace-derived series bucket identically).
	Window time.Duration
	// MaxWindows bounds the preallocated window count per series
	// (default 1024). Observations beyond Window*MaxWindows clamp into
	// the final window and increment the series' Clamped counter.
	MaxWindows int
}

// Series kinds.
const (
	TSKindCounter = "counter"
	TSKindGauge   = "gauge"
	TSKindHist    = "hist"
)

// The series the QoE recorder registers, live or replaying a trace.
const (
	// TSBufferOccupancyUS samples each peer's buffered playback lead
	// (microseconds) at every pool-fill decision.
	TSBufferOccupancyUS = "sim_buffer_occupancy_us"
	// TSPoolTargetK is the per-window distribution of Equation-1 pool
	// targets at pool-fill decisions.
	TSPoolTargetK = "sim_pool_target_k"
	// TSInflightFlows samples the post-fill in-flight download count.
	TSInflightFlows = "sim_inflight_flows"
	// TSStalledPeers samples the number of concurrently stalled peers at
	// every playback transition that changes it.
	TSStalledPeers = "sim_stalled_peers"
	// TSStallFractionPermille samples stalled peers per 1000 leechers at
	// the same transitions.
	TSStallFractionPermille = "sim_stall_fraction_permille"
	// TSSegmentsCompleted counts verified segment completions per window.
	TSSegmentsCompleted = "sim_segments_completed"
)

// NewTimeSeries returns an empty TimeSeries. Zero config fields take
// the documented defaults.
func NewTimeSeries(cfg TimeSeriesConfig) *TimeSeries {
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	// Observations bucket by whole microseconds, so the reported width
	// is whole microseconds too.
	cfg.Window = cfg.Window.Truncate(time.Microsecond)
	if cfg.Window < time.Microsecond {
		cfg.Window = time.Microsecond
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = 1024
	}
	return &TimeSeries{
		window:     cfg.Window,
		maxWindows: cfg.MaxWindows,
		series:     map[string]*tsSeries{},
	}
}

// tsCell is one window's aggregate for one series. All fields are
// atomics; min/max use CAS loops. Exact integer aggregation commutes,
// so parallel shards and worker pools fold into identical cells.
type tsCell struct {
	count int64
	sum   int64
	min   int64 // math.MaxInt64 when empty
	max   int64 // math.MinInt64 when empty
}

// tsSeries is the shared storage behind one named series.
type tsSeries struct {
	name    string
	kind    string
	window  int64 // window width in microseconds (copied for the hot path)
	cells   []tsCell
	buckets [][histSlots]int64 // hist kind only; len(cells) entries
	hi      int64              // atomic: highest window index observed, -1 when empty
	clamped int64              // atomic: observations clamped into the last window
}

func (ts *TimeSeries) register(name, kind string) TSSeries {
	if ts == nil {
		return TSSeries{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.series[name]
	if s == nil {
		s = &tsSeries{
			name:   name,
			kind:   kind,
			window: ts.window.Microseconds(),
			cells:  make([]tsCell, ts.maxWindows),
			hi:     -1,
		}
		for i := range s.cells {
			atomic.StoreInt64(&s.cells[i].min, math.MaxInt64)
			atomic.StoreInt64(&s.cells[i].max, math.MinInt64)
		}
		if kind == TSKindHist {
			s.buckets = make([][histSlots]int64, ts.maxWindows)
		}
		ts.series[name] = s
	}
	if s.kind != kind {
		panic(fmt.Sprintf("trace: time series %q registered as %s and %s", name, s.kind, kind))
	}
	return TSSeries{s: s}
}

// windowIndex maps a virtual timestamp to a window slot, clamping out-of
// range observations into the boundary windows (counting high clamps).
// Timestamps quantize to microseconds first — the trace layer's native
// resolution — so series rebuilt from JSONL events bucket identically to
// the in-process recorder.
//
//lint:hotpath runs on every observation
func (s *tsSeries) windowIndex(at time.Duration) int {
	w := at.Microseconds() / s.window
	if w < 0 {
		return 0
	}
	if w >= int64(len(s.cells)) {
		atomic.AddInt64(&s.clamped, 1)
		return len(s.cells) - 1
	}
	return int(w)
}

// raiseHi lifts the high-water window index to at least w.
//
//lint:hotpath runs on every observation
func (s *tsSeries) raiseHi(w int64) {
	for {
		cur := atomic.LoadInt64(&s.hi)
		if cur >= w || atomic.CompareAndSwapInt64(&s.hi, cur, w) {
			return
		}
	}
}

// observe folds one value into the window containing at.
//
//lint:hotpath called per telemetry event; the benchmarks assert 0 allocs/op
func (s *tsSeries) observe(at time.Duration, v int64) {
	w := s.windowIndex(at)
	c := &s.cells[w]
	atomic.AddInt64(&c.count, 1)
	atomic.AddInt64(&c.sum, v)
	for {
		cur := atomic.LoadInt64(&c.min)
		if v >= cur || atomic.CompareAndSwapInt64(&c.min, cur, v) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&c.max)
		if v <= cur || atomic.CompareAndSwapInt64(&c.max, cur, v) {
			break
		}
	}
	if s.buckets != nil {
		atomic.AddInt64(&s.buckets[w][histBucketIndex(v)], 1)
	}
	s.raiseHi(int64(w))
}

// TSSeries is a handle on one named series; Counter, Gauge or Histogram
// fixed its kind at registration. The zero handle, from a nil TimeSeries,
// is a no-op.
type TSSeries struct{ s *tsSeries }

// Observe folds v into the window containing at: a counter's delta (1
// per event), a gauge's sample, or a histogram's raw observation.
//
//lint:hotpath called per telemetry event; the benchmarks assert 0 allocs/op
func (h TSSeries) Observe(at time.Duration, v int64) {
	if h.s != nil {
		h.s.observe(at, v)
	}
}

// Counter returns the named per-window counter series (deltas summed per
// window), creating it on first use. Safe on nil, as are Gauge and
// Histogram.
func (ts *TimeSeries) Counter(name string) TSSeries { return ts.register(name, TSKindCounter) }

// Gauge returns the named sampled-gauge series: each window keeps the
// sample count, sum (for the mean), min, and max.
func (ts *TimeSeries) Gauge(name string) TSSeries { return ts.register(name, TSKindGauge) }

// Histogram returns the named per-window histogram series, recording raw
// int64 units in the package's fixed power-of-two buckets, so every
// window answers quantile queries with the end-state histograms'
// byte-stable arithmetic.
func (ts *TimeSeries) Histogram(name string) TSSeries { return ts.register(name, TSKindHist) }

// TSWindow is one window's immutable aggregate. Empty windows (Count 0)
// are materialized so consumers see a dense, gap-free timeline; their
// Min/Max/Sum are zero.
type TSWindow struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets holds the window's non-cumulative histogram counts for
	// hist-kind series; nil otherwise.
	Buckets *[histSlots]int64 `json:"buckets,omitempty"`
}

// Hist adapts a hist-kind window to HistStat so quantile queries share
// the registry histograms' exact arithmetic.
func (w TSWindow) Hist(name string, scale float64) HistStat {
	st := HistStat{Name: name, Scale: scale, Count: w.Count, Sum: w.Sum}
	if w.Buckets != nil {
		st.Counts = *w.Buckets
	}
	return st
}

// TSSeriesStat is one series' snapshot: dense windows 0..hi plus the
// clamp counter.
type TSSeriesStat struct {
	Name    string     `json:"name"`
	Kind    string     `json:"kind"`
	Scale   float64    `json:"scale"`
	Clamped int64      `json:"clamped"`
	Windows []TSWindow `json:"windows"`
}

// TSSnapshot is one coherent view of every series. Like
// RegistrySnapshot it is the single read path: the CSV export and the
// text report render from the same Snap() result, so they cannot
// disagree.
type TSSnapshot struct {
	// WindowNanos is the window width in nanoseconds.
	WindowNanos int64 `json:"window_nanos"`
	// Series is sorted by name.
	Series []TSSeriesStat `json:"series"`
}

// Snap returns the full snapshot: series sorted by name, each with its
// dense window list (empty trailing windows trimmed at the high-water
// mark). A nil TimeSeries yields an empty snapshot.
func (ts *TimeSeries) Snap() TSSnapshot {
	var snap TSSnapshot
	if ts == nil {
		return snap
	}
	snap.WindowNanos = int64(ts.window)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, s := range ts.series {
		snap.Series = append(snap.Series, s.snapshot())
	}
	sort.Slice(snap.Series, func(i, j int) bool { return snap.Series[i].Name < snap.Series[j].Name })
	return snap
}

func (s *tsSeries) snapshot() TSSeriesStat {
	st := TSSeriesStat{
		Name:    s.name,
		Kind:    s.kind,
		Scale:   1, // every series records raw units
		Clamped: atomic.LoadInt64(&s.clamped),
	}
	hi := atomic.LoadInt64(&s.hi)
	for w := int64(0); w <= hi; w++ {
		c := &s.cells[w]
		win := TSWindow{
			Count: atomic.LoadInt64(&c.count),
			Sum:   atomic.LoadInt64(&c.sum),
		}
		if win.Count > 0 {
			win.Min = atomic.LoadInt64(&c.min)
			win.Max = atomic.LoadInt64(&c.max)
		}
		if s.buckets != nil {
			b := new([histSlots]int64)
			for i := range b {
				b[i] = atomic.LoadInt64(&s.buckets[w][i])
			}
			win.Buckets = b
		}
		st.Windows = append(st.Windows, win)
	}
	return st
}

// WriteCSV renders the snapshot as one row per (series, window) with a
// fixed header. Output is byte-stable: rows follow Snap()'s sorted
// order and floats use the exposition formatter. Quantile columns are
// populated for hist-kind series and empty otherwise.
func (snap TSSnapshot) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "series,kind,window,start_us,count,sum,mean,min,max,p50,p95,p99\n"); err != nil {
		return err
	}
	windowUS := snap.WindowNanos / 1e3
	for _, s := range snap.Series {
		for i, win := range s.Windows {
			var mean float64
			if win.Count > 0 {
				mean = float64(win.Sum) / float64(win.Count)
			}
			p50, p95, p99 := "", "", ""
			if s.Kind == TSKindHist {
				h := win.Hist(s.Name, s.Scale)
				p50 = formatDisplay(h.Quantile(0.50))
				p95 = formatDisplay(h.Quantile(0.95))
				p99 = formatDisplay(h.Quantile(0.99))
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%s,%d,%d,%s,%s,%s\n",
				s.Name, s.Kind, i, int64(i)*windowUS,
				win.Count, win.Sum, formatDisplay(mean), win.Min, win.Max,
				p50, p95, p99); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteText renders a per-series summary: window span, totals, overall
// min/max, and the clamp counter. Byte-stable for the same snapshot.
func (snap TSSnapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time series: %d series, window %s\n",
		len(snap.Series), time.Duration(snap.WindowNanos)); err != nil {
		return err
	}
	for _, s := range snap.Series {
		var total, sum int64
		min, max := int64(math.MaxInt64), int64(math.MinInt64)
		for _, win := range s.Windows {
			total += win.Count
			sum += win.Sum
			if win.Count > 0 {
				if win.Min < min {
					min = win.Min
				}
				if win.Max > max {
					max = win.Max
				}
			}
		}
		if total == 0 {
			min, max = 0, 0
		}
		if _, err := fmt.Fprintf(w, "  %-28s %-7s windows=%d count=%d sum=%d min=%d max=%d clamped=%d\n",
			s.Name, s.Kind, len(s.Windows), total, sum, min, max, s.Clamped); err != nil {
			return err
		}
	}
	return nil
}
