package tracereport

import (
	"fmt"
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
	// Peers is the leecher count behind the stall-fraction series. Zero
	// infers it per file as the highest peer ID seen, which is exact for
	// runs where every leecher emits at least one event.
	Peers int
}

// maxWindows bounds how far into a run a log may reach. A series holds
// every window through the last it observed, so one far-off event (a
// corrupt line, or a window far narrower than the run) would size them all.
const maxWindows = 1 << 16

// TimeSeriesBuilder folds event logs into a TimeSeries.
type TimeSeriesBuilder struct {
	peers  int           // TimeSeriesOptions.Peers; 0 infers per log
	window time.Duration // the series' window width
	ts     *trace.TimeSeries
}

// NewTimeSeriesBuilder returns an empty builder.
func NewTimeSeriesBuilder(opts TimeSeriesOptions) *TimeSeriesBuilder {
	ts := trace.NewTimeSeries(opts.Window)
	return &TimeSeriesBuilder{peers: opts.Peers, window: time.Duration(ts.Snap().WindowNanos), ts: ts}
}

// AddEvents folds one event log (one run's trace, in emission order).
// Each file is an independent swarm, so each gets a fresh recorder (and
// with it fresh stall state) over the shared series. A log with an event
// at or past window maxWindows is refused whole, before any is folded.
func (b *TimeSeriesBuilder) AddEvents(events []trace.Event) error {
	peers := 1 // a log without peer ids is one real node's own
	for _, ev := range events {
		if ev.At/b.window >= maxWindows {
			return fmt.Errorf("event at %v is past window %d, the last a series keeps", ev.At, maxWindows-1)
		}
		peers = max(peers, ev.Peer)
	}
	if b.peers != 0 {
		peers = b.peers
	}
	trace.NewQoE(nil, nil, "", "", b.ts, peers).Replay(events)
	return nil
}

// Snap returns the accumulated snapshot.
func (b *TimeSeriesBuilder) Snap() trace.TSSnapshot { return b.ts.Snap() }

// BuildTimeSeriesDir reads every *.jsonl under dir (sorted by name, the
// AnalyzeDir contract) and folds them into one snapshot, one file after
// another, so reruns and different worker counts that produced the same
// per-cell logs yield a byte-identical CSV.
func BuildTimeSeriesDir(dir string, opts TimeSeriesOptions) (trace.TSSnapshot, error) {
	b := NewTimeSeriesBuilder(opts)
	err := walkDir(dir, func(_ string, events []trace.Event) error { return b.AddEvents(events) })
	if err != nil {
		return trace.TSSnapshot{}, err
	}
	return b.Snap(), nil
}
