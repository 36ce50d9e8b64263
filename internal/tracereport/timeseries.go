package tracereport

import (
	"time"

	"p2psplice/internal/trace"
)

// This file rebuilds the windowed time series from trace events alone,
// by replaying each log into the recorder the live run wrote through
// (trace.QoE). Windows quantize to JSONL's microseconds, so a log
// rebuilds the same snapshot from memory as from its JSONL, and a trace
// directory written by the experiment runner yields the same
// byte-for-byte CSV on every rerun and worker count.

// TimeSeriesOptions configures the trace-derived builder.
type TimeSeriesOptions struct {
	// Window is the aggregation window (default 1s).
	Window time.Duration
	// MaxWindows bounds the windows per series (default 1024).
	MaxWindows int
	// Peers is the leecher count behind the stall-fraction series. Zero
	// infers it per file as the highest peer ID seen, which is exact for
	// runs where every leecher emits at least one event.
	Peers int
}

// TimeSeriesBuilder folds event logs into a TimeSeries.
type TimeSeriesBuilder struct {
	peers int // TimeSeriesOptions.Peers; 0 infers per log
	ts    *trace.TimeSeries
}

// NewTimeSeriesBuilder returns an empty builder.
func NewTimeSeriesBuilder(opts TimeSeriesOptions) *TimeSeriesBuilder {
	return &TimeSeriesBuilder{
		peers: opts.Peers,
		ts: trace.NewTimeSeries(trace.TimeSeriesConfig{
			Window:     opts.Window,
			MaxWindows: opts.MaxWindows,
		}),
	}
}

// AddEvents folds one event log (one run's trace, in emission order).
// Each file is an independent swarm, so each gets a fresh recorder (and
// with it fresh stall state) over the shared series.
func (b *TimeSeriesBuilder) AddEvents(events []trace.Event) {
	peers := b.peers
	if peers == 0 {
		peers = 1 // a log without peer ids is one real node's own
		for _, ev := range events {
			if ev.Peer > peers {
				peers = ev.Peer
			}
		}
	}
	trace.NewQoE(nil, nil, "", "", b.ts, peers).Replay(events)
}

// Snap returns the accumulated snapshot.
func (b *TimeSeriesBuilder) Snap() trace.TSSnapshot { return b.ts.Snap() }

// BuildTimeSeriesDir reads every *.jsonl under dir (sorted by name, the
// AnalyzeDir contract) and folds them into one snapshot. The result is
// order-independent — windows aggregate commutatively — so reruns and
// different worker counts that produced the same per-cell logs yield a
// byte-identical CSV.
func BuildTimeSeriesDir(dir string, opts TimeSeriesOptions) (trace.TSSnapshot, error) {
	b := NewTimeSeriesBuilder(opts)
	err := walkDir(dir, func(_ string, events []trace.Event) { b.AddEvents(events) })
	if err != nil {
		return trace.TSSnapshot{}, err
	}
	return b.Snap(), nil
}
