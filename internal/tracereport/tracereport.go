// Package tracereport turns trace directories (the *.jsonl event logs
// cmd/experiment -trace and cmd/peer -trace write) into answers: which
// causes stole playback time, how long stalls ran, how utilized the
// transfer flows were, and how two runs compare.
//
// Everything here is deterministic by construction — the package is
// registered in splicelint's DeterministicPackages. Files are analyzed
// in sorted order, aggregates are exact integer sums, quantiles are
// nearest-rank over fully sorted samples (no estimation), and every
// writer renders from sorted slices, so a report over the same trace
// directory is byte-identical across runs, machines, and the -workers
// value that produced the traces.
package tracereport

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"p2psplice/internal/trace"
)

// Dist summarizes a duration sample set in whole microseconds. Mean is
// integer division (exact, order-independent); quantiles are
// nearest-rank from the sorted samples.
type Dist struct {
	Count   int   `json:"count"`
	TotalUS int64 `json:"total_us"`
	MeanUS  int64 `json:"mean_us"`
	P50US   int64 `json:"p50_us"`
	P95US   int64 `json:"p95_us"`
	MaxUS   int64 `json:"max_us"`
}

// distOf summarizes samples, sorting them in place.
func distOf(samples []int64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var total int64
	for _, s := range samples {
		total += s
	}
	return Dist{
		Count:   len(samples),
		TotalUS: total,
		MeanUS:  total / int64(len(samples)),
		P50US:   nearestRank(samples, 50),
		P95US:   nearestRank(samples, 95),
		MaxUS:   samples[len(samples)-1],
	}
}

// nearestRank returns the pct-th percentile of sorted samples by the
// nearest-rank method: the smallest sample with at least pct% of the
// mass at or below it.
func nearestRank(sorted []int64, pct int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// CauseStats is one row of the stall-cause breakdown.
type CauseStats struct {
	Cause string `json:"cause"`
	Dist
}

// StallStats summarizes stall behavior across the directory.
type StallStats struct {
	Count         int     `json:"count"`
	Attributed    int     `json:"attributed"`
	AttributedPct float64 `json:"attributed_pct"`
	// Open counts stalls never closed within their trace; their
	// durations are unknowable so they are excluded from Durations.
	Open      int  `json:"open"`
	Durations Dist `json:"durations"`
}

// FlowStats summarizes the netem flow lifecycle events. FrozenUS sums
// freeze->unfreeze spans; ActiveUS sums activate->complete/cancel
// spans. UtilizationPct is the share of active flow time not spent
// stopped by an RTO or a downed link.
type FlowStats struct {
	Setups         int64   `json:"setups"`
	Completes      int64   `json:"completes"`
	Cancels        int64   `json:"cancels"`
	Freezes        int64   `json:"freezes"`
	Ramps          int64   `json:"ramps"`
	ActiveUS       int64   `json:"active_us"`
	FrozenUS       int64   `json:"frozen_us"`
	UtilizationPct float64 `json:"utilization_pct"`
}

// SegmentStats summarizes completed segment transfers.
type SegmentStats struct {
	Count      int   `json:"count"`
	TotalBytes int64 `json:"total_bytes"`
	Latency    Dist  `json:"latency"`
}

// RepPeerStats is one row of the per-peer reputation rollup, aggregated
// across the directory by peer key (the emulator's integer node id, or
// the real stack's peer id string). Penalties and Quarantines count the
// peer's CatRep events; QuarantineUS sums its quarantine windows —
// begin to the scheduled release, clamped to each trace's end, with
// overlapping windows merged. FinalScore is the score carried by the
// peer's last penalty or quarantine event in sorted-file order (scores
// are only traced when charged, so it reflects the last offense).
type RepPeerStats struct {
	Peer         string  `json:"peer"`
	Penalties    int64   `json:"penalties"`
	Quarantines  int64   `json:"quarantines"`
	QuarantineUS int64   `json:"quarantine_us"`
	FinalScore   float64 `json:"final_score"`
}

// FileStats is the per-file (per experiment cell) rollup of the peer
// timelines: one row per *.jsonl in the directory.
type FileStats struct {
	File          string `json:"file"`
	Events        int    `json:"events"`
	Peers         int    `json:"peers"`
	Finished      int    `json:"finished"`
	Stalls        int    `json:"stalls"`
	Unattributed  int    `json:"unattributed"`
	Open          int    `json:"open"`
	TotalStallUS  int64  `json:"total_stall_us"`
	MeanStartupUS int64  `json:"mean_startup_us"`
}

// Report is the aggregate analysis of one trace directory. It contains
// no absolute paths, timestamps, or map-ordered fields, so serialized
// reports are byte-identical whenever the input traces are.
type Report struct {
	Files    int          `json:"files"`
	Events   int64        `json:"events"`
	Peers    int          `json:"peers"`
	Finished int          `json:"finished"`
	Startup  Dist         `json:"startup"`
	Stalls   StallStats   `json:"stalls"`
	Causes   []CauseStats `json:"causes"`
	Flows    FlowStats    `json:"flows"`
	Segments SegmentStats `json:"segments"`
	// Reputation is present only when the traces carry CatRep events
	// (reputation-enabled runs): one row per penalized peer.
	Reputation []RepPeerStats `json:"reputation,omitempty"`
	PerFile    []FileStats    `json:"per_file"`
}

// Analysis couples the Report with the raw sorted sample sets the CDF
// export needs (samples are deliberately kept out of the JSON report).
type Analysis struct {
	Report *Report
	// StallUS holds every closed stall duration, sorted ascending.
	StallUS []int64
	// SegmentUS holds every segment transfer latency, sorted ascending.
	SegmentUS []int64
	// StartupUS holds every peer's startup delay, sorted ascending.
	StartupUS []int64
}

// accum folds one directory's events.
type accum struct {
	report   Report
	startups []int64
	stalls   []int64
	segments []int64
	byCause  map[string][]int64
	flows    FlowStats
	// rep aggregates CatRep events by peer key; repOrder preserves
	// first-seen order until the final numeric-aware sort.
	rep      map[string]*RepPeerStats
	repOrder []string
}

// flowState tracks one flow id within one file.
type flowState struct {
	activeAt int64 // microseconds; -1 when not active
	frozenAt int64 // microseconds; -1 when not frozen
}

// walkDir calls fn with every *.jsonl under dir, sorted by name — the
// order every directory-level result is defined over.
func walkDir(dir string, fn func(name string, events []trace.Event) error) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return fmt.Errorf("tracereport: %w", err)
	}
	if len(paths) == 0 {
		return fmt.Errorf("tracereport: no *.jsonl traces in %s", dir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("tracereport: %w", err)
		}
		events, err := trace.ReadJSONL(f)
		f.Close()
		if err == nil {
			err = fn(filepath.Base(path), events)
		}
		if err != nil {
			return fmt.Errorf("tracereport: %s: %w", filepath.Base(path), err)
		}
	}
	return nil
}

// AnalyzeDir reads every *.jsonl under dir (sorted by name) and folds
// them into one Analysis.
func AnalyzeDir(dir string) (*Analysis, error) {
	a := newAccum()
	err := walkDir(dir, func(name string, events []trace.Event) error {
		a.addFile(name, events)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a.finish(), nil
}

// AnalyzeFiles folds pre-loaded event logs (tests and in-process
// callers). Files are processed in the order given; callers wanting the
// directory contract must pass them name-sorted.
func AnalyzeFiles(names []string, eventsByFile [][]trace.Event) *Analysis {
	a := newAccum()
	for i, name := range names {
		a.addFile(name, eventsByFile[i])
	}
	return a.finish()
}

func newAccum() *accum {
	return &accum{
		byCause: make(map[string][]int64),
		rep:     make(map[string]*RepPeerStats),
	}
}

// addFile folds one event log into the accumulator.
func (a *accum) addFile(name string, events []trace.Event) {
	fs := FileStats{File: name, Events: len(events)}
	a.report.Events += int64(len(events))

	// Player-side rollup comes from trace.BuildTimeline, which the
	// attribution tests also use, so the report can never disagree with them.
	tls := trace.BuildTimeline(events)
	fs.Peers = len(tls)
	var startupTotal, startupN int64
	for _, tl := range tls {
		if tl.Finished {
			fs.Finished++
		}
		if tl.StartupUS >= 0 {
			a.startups = append(a.startups, tl.StartupUS)
			startupTotal += tl.StartupUS
			startupN++
		}
		for _, s := range tl.Stalls {
			fs.Stalls++
			a.report.Stalls.Count++
			if s.Cause != "" {
				a.report.Stalls.Attributed++
			} else {
				fs.Unattributed++
			}
			if s.EndUS < 0 {
				fs.Open++
				a.report.Stalls.Open++
				continue
			}
			d := s.EndUS - s.StartUS
			a.stalls = append(a.stalls, d)
			fs.TotalStallUS += d
			if s.Cause != "" {
				a.byCause[s.Cause] = append(a.byCause[s.Cause], d)
			}
		}
	}
	if startupN > 0 {
		fs.MeanStartupUS = startupTotal / startupN
	}
	a.report.Peers += fs.Peers
	a.report.Finished += fs.Finished

	// Flow and segment events fold directly; flow spans are tracked per
	// flow id within the file (ids are not unique across files).
	flows := make(map[int64]*flowState)
	var quarSpans []repSpan
	var lastUS int64
	for _, ev := range events {
		if us := ev.At.Microseconds(); us > lastUS {
			lastUS = us
		}
		switch ev.Cat {
		case trace.CatFlow:
			a.addFlowEvent(flows, ev)
		case trace.CatPool:
			if ev.Name == trace.EvSegComplete {
				a.segments = append(a.segments, ev.ArgInt64(trace.ArgElapsedUS, 0))
				a.report.Segments.Count++
				a.report.Segments.TotalBytes += ev.ArgInt64(trace.ArgBytes, 0)
			}
		case trace.CatRep:
			quarSpans = a.addRepEvent(quarSpans, ev)
		}
	}
	// Quarantine windows are charged up to their scheduled release,
	// clamped to the trace's end; per-peer overlaps (an escape-hatch
	// offense extending a live window) are merged, which the in-order
	// span list makes a single forward pass. The merge state is per file:
	// peer keys repeat across cells on fresh timelines.
	openUntil := make(map[string]int64)
	for _, sp := range quarSpans {
		start, end := sp.startUS, sp.untilUS
		if end > lastUS {
			end = lastUS
		}
		if prev := openUntil[sp.peer]; start < prev {
			start = prev
		}
		if end > start {
			a.rep[sp.peer].QuarantineUS += end - start
			openUntil[sp.peer] = end
		}
	}
	// Close out still-active/frozen flows at the trace's end so a run
	// truncated mid-transfer still charges its frozen time. Integer sums
	// commute, so map iteration order cannot affect the totals.
	for _, st := range flows {
		if st.frozenAt >= 0 {
			a.flows.FrozenUS += lastUS - st.frozenAt
		}
		if st.activeAt >= 0 {
			a.flows.ActiveUS += lastUS - st.activeAt
		}
	}
	a.report.PerFile = append(a.report.PerFile, fs)
}

func (a *accum) addFlowEvent(flows map[int64]*flowState, ev trace.Event) {
	id := ev.ArgInt64("flow", -1)
	if id < 0 {
		return
	}
	st := flows[id]
	if st == nil {
		st = &flowState{activeAt: -1, frozenAt: -1}
		flows[id] = st
	}
	us := ev.At.Microseconds()
	switch ev.Name {
	case trace.EvFlowSetup:
		a.flows.Setups++
	case trace.EvFlowActivate:
		st.activeAt = us
	case trace.EvFlowFreeze:
		a.flows.Freezes++
		if st.frozenAt < 0 {
			st.frozenAt = us
		}
	case trace.EvFlowUnfreeze:
		if st.frozenAt >= 0 {
			a.flows.FrozenUS += us - st.frozenAt
			st.frozenAt = -1
		}
	case trace.EvFlowRamp:
		a.flows.Ramps++
	case trace.EvFlowComplete, trace.EvFlowCancel:
		if ev.Name == trace.EvFlowComplete {
			a.flows.Completes++
		} else {
			a.flows.Cancels++
		}
		if st.frozenAt >= 0 {
			a.flows.FrozenUS += us - st.frozenAt
			st.frozenAt = -1
		}
		if st.activeAt >= 0 {
			a.flows.ActiveUS += us - st.activeAt
			st.activeAt = -1
		}
	}
}

// repSpan is one quarantine window within one file, pending the clamp
// against the file's last timestamp.
type repSpan struct {
	peer    string
	startUS int64
	untilUS int64
}

// repPeerKey derives the rollup key for a CatRep event: the emulator
// stamps the scored node id on Event.Peer; the real stack has no integer
// ids and carries the wire peer id in the ArgPeer arg instead.
func repPeerKey(ev trace.Event) string {
	if ev.Peer >= 0 {
		return strconv.Itoa(ev.Peer)
	}
	return ev.ArgStr(trace.ArgPeer, "")
}

// addRepEvent folds one CatRep event and returns the (possibly grown)
// quarantine span list.
func (a *accum) addRepEvent(spans []repSpan, ev trace.Event) []repSpan {
	key := repPeerKey(ev)
	if key == "" {
		return spans
	}
	st := a.rep[key]
	if st == nil {
		st = &RepPeerStats{Peer: key}
		a.rep[key] = st
		a.repOrder = append(a.repOrder, key)
	}
	switch ev.Name {
	case trace.EvRepPenalty:
		st.Penalties++
		st.FinalScore = ev.ArgFloat64(trace.ArgScore, st.FinalScore)
	case trace.EvQuarantine:
		st.Quarantines++
		st.FinalScore = ev.ArgFloat64(trace.ArgScore, st.FinalScore)
		spans = append(spans, repSpan{
			peer:    key,
			startUS: ev.At.Microseconds(),
			untilUS: ev.ArgInt64(trace.ArgUntilUS, ev.At.Microseconds()),
		})
	}
	return spans
}

// finish seals the accumulator into an Analysis.
func (a *accum) finish() *Analysis {
	r := &a.report
	r.Files = len(r.PerFile)
	r.Startup = distOf(a.startups)
	r.Stalls.Durations = distOf(a.stalls)
	if r.Stalls.Count > 0 {
		r.Stalls.AttributedPct = 100 * float64(r.Stalls.Attributed) / float64(r.Stalls.Count)
	} else {
		r.Stalls.AttributedPct = 100
	}
	r.Segments.Latency = distOf(a.segments)

	var causes []CauseStats
	for cause, samples := range a.byCause {
		causes = append(causes, CauseStats{Cause: cause, Dist: distOf(samples)})
	}
	// Biggest time thief first; name breaks ties so the order is total.
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].TotalUS != causes[j].TotalUS {
			return causes[i].TotalUS > causes[j].TotalUS
		}
		return causes[i].Cause < causes[j].Cause
	})
	r.Causes = causes

	a.flows.UtilizationPct = 100
	if a.flows.ActiveUS > 0 {
		a.flows.UtilizationPct = 100 * float64(a.flows.ActiveUS-a.flows.FrozenUS) / float64(a.flows.ActiveUS)
	}
	r.Flows = a.flows

	// Numeric-aware peer order: the emulator's integer node ids sort by
	// value, the real stack's opaque id strings after them by name.
	sort.Slice(a.repOrder, func(i, j int) bool {
		ki, kj := a.repOrder[i], a.repOrder[j]
		ni, erri := strconv.Atoi(ki)
		nj, errj := strconv.Atoi(kj)
		switch {
		case erri == nil && errj == nil:
			return ni < nj
		case erri == nil:
			return true
		case errj == nil:
			return false
		default:
			return ki < kj
		}
	})
	for _, key := range a.repOrder {
		r.Reputation = append(r.Reputation, *a.rep[key])
	}

	return &Analysis{
		Report:    r,
		StallUS:   a.stalls,
		SegmentUS: a.segments,
		StartupUS: a.startups,
	}
}
