package trace

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// TimeSeries adds the time dimension to the telemetry stack: fixed-width
// virtual-time windows, each aggregating the observations that fall
// inside it. End-state registries answer "how bad was it overall"; a
// TimeSeries answers "when" — buffer occupancy over the run, in-flight
// flows per second, the stall fraction as a swarm warms up.
//
// A TimeSeries is a fold over one goroutine's observations: it reads no
// clock (every observation carries its own virtual timestamp), draws
// from no RNG and aggregates only with integer sums, counts, min/max and
// bucket increments, so the same observations give the same windows.
// Its producers are a trace replay and a swarmbench run, each on one
// goroutine; a TimeSeries is not safe for concurrent use. A nil
// *TimeSeries is valid and hands out no-op handles, so instrumented code
// never branches on whether the layer is attached.
//
// Each series is a slice of windows that grows to the last window
// observed. Observing into an existing window allocates nothing
// (//lint:hotpath; the alloc benchmarks gate it).
type TimeSeries struct {
	window time.Duration
	series map[string]*tsSeries
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

// NewTimeSeries returns an empty TimeSeries of window-wide windows in
// virtual time: default 1s, truncated to whole microseconds, minimum
// 1µs. Windowing runs at the trace layer's microsecond resolution, so
// trace-derived series bucket identically.
func NewTimeSeries(window time.Duration) *TimeSeries {
	if window <= 0 {
		window = time.Second
	}
	// Observations bucket by whole microseconds, so the reported width
	// is whole microseconds too.
	window = window.Truncate(time.Microsecond)
	if window < time.Microsecond {
		window = time.Microsecond
	}
	return &TimeSeries{window: window, series: map[string]*tsSeries{}}
}

// tsSeries is the storage behind one named series.
type tsSeries struct {
	name    string
	kind    string
	window  int64              // window width in microseconds (copied for the hot path)
	windows []TSWindow         // windows 0 through the last observed; Buckets unset
	buckets [][histSlots]int64 // hist kind only; one per window
}

func (ts *TimeSeries) register(name, kind string) TSSeries {
	if ts == nil {
		return TSSeries{}
	}
	s := ts.series[name]
	if s == nil {
		s = &tsSeries{name: name, kind: kind, window: ts.window.Microseconds()}
		ts.series[name] = s
	}
	if s.kind != kind {
		panic(fmt.Sprintf("trace: time series %q registered as %s and %s", name, s.kind, kind))
	}
	return TSSeries{s: s}
}

// observe folds one value into the window containing at, growing the
// series to that window first. Timestamps quantize to microseconds — the
// trace layer's native resolution — so series rebuilt from JSONL events
// bucket identically to the in-process recorder; a negative one falls in
// window 0.
//
//lint:hotpath called per telemetry event; the benchmarks assert 0 allocs/op into existing windows
func (s *tsSeries) observe(at time.Duration, v int64) {
	w := max(at.Microseconds()/s.window, 0)
	if n := w + 1 - int64(len(s.windows)); n > 0 {
		s.windows = append(s.windows, make([]TSWindow, n)...)
		if s.kind == TSKindHist {
			s.buckets = append(s.buckets, make([][histSlots]int64, n)...)
		}
	}
	c := &s.windows[w]
	if c.Count == 0 || v < c.Min {
		c.Min = v
	}
	if c.Count == 0 || v > c.Max {
		c.Max = v
	}
	c.Count++
	c.Sum += v
	if s.buckets != nil {
		s.buckets[w][histBucketIndex(v)]++
	}
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

// TSSeriesStat is one series' snapshot: dense windows 0 through the
// last observed.
type TSSeriesStat struct {
	Name    string     `json:"name"`
	Kind    string     `json:"kind"`
	Scale   float64    `json:"scale"`
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
// dense window list through the last window observed. A nil TimeSeries
// yields an empty snapshot.
func (ts *TimeSeries) Snap() TSSnapshot {
	var snap TSSnapshot
	if ts == nil {
		return snap
	}
	snap.WindowNanos = int64(ts.window)
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
		Windows: slices.Clone(s.windows),
	}
	for w := range s.buckets {
		b := s.buckets[w]
		st.Windows[w].Buckets = &b
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
// min/max. Byte-stable for the same snapshot.
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
		if _, err := fmt.Fprintf(w, "  %-28s %-7s windows=%d count=%d sum=%d min=%d max=%d\n",
			s.Name, s.Kind, len(s.Windows), total, sum, min, max); err != nil {
			return err
		}
	}
	return nil
}
