package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic counter. The zero Counter (from a nil
// Registry) is a no-op, so instrumented code never branches on whether
// metrics are enabled.
type Counter struct {
	v *int64
}

// Add increments the counter by delta.
func (c Counter) Add(delta int64) {
	if c.v != nil {
		atomic.AddInt64(c.v, delta)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Gauge is an atomic instantaneous value. The zero Gauge is a no-op.
type Gauge struct {
	v *int64
}

// Set stores v.
func (g Gauge) Set(v int64) {
	if g.v != nil {
		atomic.StoreInt64(g.v, v)
	}
}

// Stat is one snapshot entry.
type Stat struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "counter" or "gauge"
	Value int64  `json:"value"`
}

// Registry is a named counter/gauge/histogram set shared by the real
// TCP stack and the emulation's metrics layer. Lookup is locked; the
// returned handles update lock-free. A nil *Registry is valid and hands
// out no-op handles.
//
// A metric name may carry Prometheus-style labels inline —
// `p2p_stall_seconds{cause="slow_flow"}` — and the text-exposition
// writer groups such series into one family. Names must be unique
// across kinds: registering the same name as both a counter and a
// histogram would render an invalid exposition.
type Registry struct {
	mu       sync.Mutex // guards counters, gauges, hists and help
	counters map[string]*int64
	gauges   map[string]*int64
	hists    map[string]*histState
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*int64{},
		gauges:   map[string]*int64{},
		hists:    map[string]*histState{},
		help:     map[string]string{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.counters[name]
	if v == nil {
		v = new(int64)
		r.counters[name] = v
	}
	return Counter{v: v}
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.gauges[name]
	if v == nil {
		v = new(int64)
		r.gauges[name] = v
	}
	return Gauge{v: v}
}

// Histogram returns the named histogram recording raw int64 units
// (bytes, counts), creating it on first use. The name decides the
// family; inline labels are allowed.
func (r *Registry) Histogram(name string) Histogram { return r.histogram(name, 1) }

// SecondsHistogram returns the named histogram recording microseconds
// and exposing seconds (scale 1e-6). By convention its name ends in
// `_seconds`; feed it with ObserveDuration.
func (r *Registry) SecondsHistogram(name string) Histogram { return r.histogram(name, 1e-6) }

func (r *Registry) histogram(name string, scale float64) Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		// First registration fixes the scale; later lookups reuse it.
		h = &histState{scale: scale}
		r.hists[name] = h
	}
	return Histogram{h: h}
}

// SetHelp attaches a HELP string to a metric family (the base name,
// without labels) for the text exposition.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// RegistrySnapshot is one coherent view of every metric in a registry.
// It is the single source for both renderings — the aligned text dump
// and the Prometheus exposition derive from the same Snap() result, so
// their numbers cannot drift.
type RegistrySnapshot struct {
	// Stats holds counters and gauges sorted by name (kind breaks ties).
	Stats []Stat `json:"stats"`
	// Hists holds histograms sorted by name.
	Hists []HistStat `json:"hists"`
	// Help maps family base names to registered HELP strings.
	Help map[string]string `json:"help,omitempty"`
}

// Snap returns the full snapshot. Ordering contract: Stats is sorted by
// name (and by kind for equal names), Hists by name — byte-stable
// regardless of registration or map-iteration order. A nil registry
// yields an empty snapshot.
func (r *Registry) Snap() RegistrySnapshot {
	var snap RegistrySnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.counters {
		snap.Stats = append(snap.Stats, Stat{Name: name, Kind: "counter", Value: atomic.LoadInt64(v)})
	}
	for name, v := range r.gauges {
		snap.Stats = append(snap.Stats, Stat{Name: name, Kind: "gauge", Value: atomic.LoadInt64(v)})
	}
	sort.Slice(snap.Stats, func(i, j int) bool {
		if snap.Stats[i].Name != snap.Stats[j].Name {
			return snap.Stats[i].Name < snap.Stats[j].Name
		}
		return snap.Stats[i].Kind < snap.Stats[j].Kind
	})
	for name, h := range r.hists {
		snap.Hists = append(snap.Hists, h.snapshot(name))
	}
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	if len(r.help) > 0 {
		snap.Help = make(map[string]string, len(r.help))
		for k, v := range r.help {
			snap.Help[k] = v
		}
	}
	return snap
}

// WriteText renders the snapshot as aligned "name value" lines:
// counters and gauges first, then one summary line per histogram with
// its count, sum, and interpolated p50/p95/p99 in display units. The
// output is byte-stable: it derives from Snap()'s sorted views and
// uses fixed float formatting.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snap()
	for _, s := range snap.Stats {
		if _, err := fmt.Fprintf(w, "%-28s %12d\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	for _, h := range snap.Hists {
		if _, err := fmt.Fprintf(w, "%-28s count=%d sum=%s p50=%s p95=%s p99=%s\n",
			h.Name, h.Count, formatDisplay(h.SumScaled()),
			formatDisplay(h.Quantile(0.50)), formatDisplay(h.Quantile(0.95)),
			formatDisplay(h.Quantile(0.99))); err != nil {
			return err
		}
	}
	return nil
}
