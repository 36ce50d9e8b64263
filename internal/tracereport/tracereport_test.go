package tracereport

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

// playerEvents builds a startup + one attributed closed stall for peer.
func playerEvents(peer int, startupUS, stallStart, stallEnd int64, cause string) []trace.Event {
	evs := []trace.Event{
		{At: us(startupUS), Peer: peer, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStartup,
			Args: []trace.Arg{trace.Int64("startup_us", startupUS)}},
		{At: us(stallStart), Peer: peer, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStallBegin},
		{At: us(stallStart), Peer: peer, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStallCause,
			Args: []trace.Arg{trace.Str("cause", cause)}},
	}
	if stallEnd >= 0 {
		evs = append(evs, trace.Event{At: us(stallEnd), Peer: peer, Seg: -1,
			Cat: trace.CatPlayer, Name: trace.EvStallEnd})
	}
	evs = append(evs, trace.Event{At: us(stallEnd + 1000), Peer: peer, Seg: -1,
		Cat: trace.CatPlayer, Name: trace.EvFinished})
	return evs
}

func TestNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		pct  int
		want int64
	}{{50, 50}, {95, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}}
	for _, c := range cases {
		if got := nearestRank(sorted, c.pct); got != c.want {
			t.Errorf("nearestRank(%d) = %d, want %d", c.pct, got, c.want)
		}
	}
	if got := nearestRank(nil, 95); got != 0 {
		t.Errorf("nearestRank(empty) = %d, want 0", got)
	}
}

func TestDistOf(t *testing.T) {
	d := distOf([]int64{300, 100, 200})
	if d.Count != 3 || d.TotalUS != 600 || d.MeanUS != 200 || d.MaxUS != 300 {
		t.Errorf("distOf = %+v", d)
	}
	if d.P50US != 200 || d.P95US != 300 {
		t.Errorf("quantiles = p50 %d p95 %d, want 200 300", d.P50US, d.P95US)
	}
	if z := distOf(nil); z != (Dist{}) {
		t.Errorf("distOf(nil) = %+v, want zero", z)
	}
}

func TestStallAttributionAndCauses(t *testing.T) {
	var evs []trace.Event
	evs = append(evs, playerEvents(0, 1000, 5000, 7000, trace.CauseSlowFlow)...)  // 2000us
	evs = append(evs, playerEvents(1, 2000, 6000, 11000, trace.CauseSlowFlow)...) // 5000us
	evs = append(evs, playerEvents(2, 1500, 8000, 9000, trace.CauseEmptyPool)...) // 1000us
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	r := a.Report

	if r.Peers != 3 || r.Finished != 3 {
		t.Errorf("peers=%d finished=%d, want 3 3", r.Peers, r.Finished)
	}
	if r.Stalls.Count != 3 || r.Stalls.Attributed != 3 || r.Stalls.AttributedPct != 100 || r.Stalls.Open != 0 {
		t.Errorf("stalls = %+v, want 3 attributed 100%%, none open", r.Stalls)
	}
	if r.Stalls.Durations.TotalUS != 8000 {
		t.Errorf("stall total = %d, want 8000", r.Stalls.Durations.TotalUS)
	}
	// slow_flow (7000us total) must outrank empty_pool (1000us).
	if len(r.Causes) != 2 || r.Causes[0].Cause != trace.CauseSlowFlow || r.Causes[0].TotalUS != 7000 {
		t.Fatalf("causes = %+v", r.Causes)
	}
	if r.Causes[1].Cause != trace.CauseEmptyPool || r.Causes[1].Count != 1 {
		t.Errorf("causes[1] = %+v", r.Causes[1])
	}
	if r.Startup.Count != 3 || r.Startup.TotalUS != 4500 {
		t.Errorf("startup = %+v", r.Startup)
	}
}

func TestUnattributedAndOpenStalls(t *testing.T) {
	evs := []trace.Event{
		{At: us(100), Peer: 0, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvStallBegin},
		// No cause, no end: unattributed AND open.
	}
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	r := a.Report
	if r.Stalls.Count != 1 || r.Stalls.Attributed != 0 || r.Stalls.Open != 1 {
		t.Errorf("stalls = %+v", r.Stalls)
	}
	if r.Stalls.AttributedPct != 0 {
		t.Errorf("attributed pct = %v, want 0", r.Stalls.AttributedPct)
	}
	if r.PerFile[0].Unattributed != 1 || r.PerFile[0].Open != 1 {
		t.Errorf("per-file = %+v", r.PerFile[0])
	}
	// Open stalls contribute no duration sample.
	if r.Stalls.Durations.Count != 0 {
		t.Errorf("durations count = %d, want 0", r.Stalls.Durations.Count)
	}
}

func TestFlowUtilization(t *testing.T) {
	flow := func(at int64, name string, id int64) trace.Event {
		return trace.Event{At: us(at), Peer: 0, Seg: -1, Cat: trace.CatFlow, Name: name,
			Args: []trace.Arg{trace.Int64("flow", id)}}
	}
	evs := []trace.Event{
		flow(0, trace.EvFlowSetup, 1),
		flow(100, trace.EvFlowActivate, 1),
		flow(200, trace.EvFlowFreeze, 1),
		flow(450, trace.EvFlowUnfreeze, 1),
		flow(1100, trace.EvFlowComplete, 1), // active 1000us, frozen 250us
		flow(0, trace.EvFlowSetup, 2),
		flow(500, trace.EvFlowActivate, 2),
		flow(900, trace.EvFlowFreeze, 2),
		flow(1000, trace.EvFlowCancel, 2), // active 500us, frozen 100us (closed by cancel)
	}
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	f := a.Report.Flows
	if f.Setups != 2 || f.Completes != 1 || f.Cancels != 1 || f.Freezes != 2 {
		t.Errorf("flow counts = %+v", f)
	}
	if f.ActiveUS != 1500 || f.FrozenUS != 350 {
		t.Errorf("active=%d frozen=%d, want 1500 350", f.ActiveUS, f.FrozenUS)
	}
	want := 100 * float64(1500-350) / 1500
	if f.UtilizationPct != want {
		t.Errorf("utilization = %v, want %v", f.UtilizationPct, want)
	}
}

func TestFlowOpenAtTraceEndIsCharged(t *testing.T) {
	evs := []trace.Event{
		{At: us(100), Peer: 0, Seg: -1, Cat: trace.CatFlow, Name: trace.EvFlowActivate,
			Args: []trace.Arg{trace.Int64("flow", 1)}},
		{At: us(300), Peer: 0, Seg: -1, Cat: trace.CatFlow, Name: trace.EvFlowFreeze,
			Args: []trace.Arg{trace.Int64("flow", 1)}},
		// Trace ends at 500 with the flow still active and frozen.
		{At: us(500), Peer: 0, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvFinished},
	}
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	f := a.Report.Flows
	if f.ActiveUS != 400 || f.FrozenUS != 200 {
		t.Errorf("active=%d frozen=%d, want 400 200", f.ActiveUS, f.FrozenUS)
	}
}

func TestSegmentStats(t *testing.T) {
	seg := func(at int64, peer int, bytes, elapsed int64) trace.Event {
		return trace.Event{At: us(at), Peer: peer, Seg: 1, Cat: trace.CatPool, Name: trace.EvSegComplete,
			Args: []trace.Arg{trace.Int64("bytes", bytes), trace.Int64("elapsed_us", elapsed)}}
	}
	evs := []trace.Event{
		seg(100, 0, 1000, 50),  // emulation
		seg(200, -1, 2000, 70), // real stack
	}
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	s := a.Report.Segments
	if s.Count != 2 || s.TotalBytes != 3000 || s.Latency.TotalUS != 120 {
		t.Errorf("segments = %+v", s)
	}
}

func TestReportOutputsAreByteStable(t *testing.T) {
	var evs []trace.Event
	evs = append(evs, playerEvents(0, 1000, 5000, 7000, trace.CauseSlowFlow)...)
	evs = append(evs, playerEvents(1, 1200, 5500, 9500, trace.CauseFrozenFlow)...)
	files := []string{"a.jsonl", "b.jsonl"}
	logs := [][]trace.Event{evs, evs}

	render := func() (string, string, string) {
		a := AnalyzeFiles(files, logs)
		var j, tb, c bytes.Buffer
		if err := WriteJSON(&j, a.Report); err != nil {
			t.Fatal(err)
		}
		if err := WriteTable(&tb, a.Report); err != nil {
			t.Fatal(err)
		}
		if err := WriteCDF(&c, "stall", a.StallUS); err != nil {
			t.Fatal(err)
		}
		return j.String(), tb.String(), c.String()
	}
	j1, t1, c1 := render()
	for i := 0; i < 5; i++ {
		j2, t2, c2 := render()
		if j1 != j2 || t1 != t2 || c1 != c2 {
			t.Fatalf("render %d differs from first render", i)
		}
	}
	if !strings.Contains(t1, "slow_flow") || !strings.Contains(t1, "frozen_flow") {
		t.Errorf("table missing causes:\n%s", t1)
	}
}

func TestWriteCDF(t *testing.T) {
	var b bytes.Buffer
	if err := WriteCDF(&b, "stall", []int64{100, 200, 200, 400}); err != nil {
		t.Fatal(err)
	}
	want := "stall_us,cdf\n100,0.250000\n200,0.750000\n400,1.000000\n"
	if b.String() != want {
		t.Errorf("cdf = %q, want %q", b.String(), want)
	}
}

func TestDiff(t *testing.T) {
	mk := func(cause string, startUS, endUS int64) *Report {
		evs := playerEvents(0, 1000, startUS, endUS, cause)
		return AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs}).Report
	}
	a := mk(trace.CauseSlowFlow, 5000, 6000)  // 1000us slow_flow
	b := mk(trace.CauseEmptyPool, 5000, 9000) // 4000us empty_pool
	d := Diff("A", a, "B", b)
	if d.AStalls != 1 || d.BStalls != 1 {
		t.Errorf("stall counts = %d %d", d.AStalls, d.BStalls)
	}
	if d.AStallTotalUS != 1000 || d.BStallTotalUS != 4000 {
		t.Errorf("totals = %d %d", d.AStallTotalUS, d.BStallTotalUS)
	}
	if len(d.Causes) != 2 {
		t.Fatalf("causes = %+v", d.Causes)
	}
	// empty_pool has |delta| 4000, slow_flow 1000: empty_pool first.
	if d.Causes[0].Cause != trace.CauseEmptyPool || d.Causes[0].DeltaTotalUS != 4000 {
		t.Errorf("causes[0] = %+v", d.Causes[0])
	}
	if d.Causes[1].Cause != trace.CauseSlowFlow || d.Causes[1].DeltaTotalUS != -1000 {
		t.Errorf("causes[1] = %+v", d.Causes[1])
	}
	var tb bytes.Buffer
	if err := WriteDiffTable(&tb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "empty_pool") {
		t.Errorf("diff table missing cause:\n%s", tb.String())
	}
}

func TestAnalyzeDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var evs []trace.Event
	evs = append(evs, playerEvents(0, 1000, 5000, 7000, trace.CauseSlowFlow)...)
	for _, name := range []string{"b.jsonl", "a.jsonl"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteJSONL(f, evs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A non-jsonl file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "report.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := a.Report
	if r.Files != 2 || r.Peers != 2 || r.Stalls.Count != 2 {
		t.Errorf("report = files %d peers %d stalls %d", r.Files, r.Peers, r.Stalls.Count)
	}
	// Sorted file order: a.jsonl first despite creation order.
	if r.PerFile[0].File != "a.jsonl" || r.PerFile[1].File != "b.jsonl" {
		t.Errorf("per-file order = %s, %s", r.PerFile[0].File, r.PerFile[1].File)
	}
}

func TestAnalyzeDirEmpty(t *testing.T) {
	if _, err := AnalyzeDir(t.TempDir()); err == nil {
		t.Fatal("AnalyzeDir over an empty dir must fail")
	}
}

// repEvent builds one CatRep event the emulator way (integer peer id on
// Event.Peer) unless peerArg is non-empty, in which case it mimics the
// real stack (Peer=-1, id in the "peer" arg).
func repEvent(at int64, peer int, peerArg, name string, args ...trace.Arg) trace.Event {
	ev := trace.Event{At: us(at), Peer: peer, Seg: -1, Cat: trace.CatRep, Name: name, Args: args}
	if peerArg != "" {
		ev.Peer = -1
		ev.Args = append([]trace.Arg{trace.Str("peer", peerArg)}, args...)
	}
	return ev
}

func TestReputationRollup(t *testing.T) {
	evs := []trace.Event{
		repEvent(1000, 3, "", trace.EvRepPenalty,
			trace.Str("obs", "verify_fail"), trace.Float64("score", 4)),
		repEvent(2000, 3, "", trace.EvRepPenalty,
			trace.Str("obs", "verify_fail"), trace.Float64("score", 7.5)),
		repEvent(2000, 3, "", trace.EvQuarantine,
			trace.Float64("score", 11), trace.Int64("until_us", 6000)),
		// Re-offense inside the live window: the extended span must merge,
		// charging 2000..8000 once (6000us), not 4000+6000.
		repEvent(4000, 3, "", trace.EvQuarantine,
			trace.Float64("score", 15), trace.Int64("until_us", 8000)),
		repEvent(1500, 1, "", trace.EvRepPenalty,
			trace.Str("obs", "stale_have"), trace.Float64("score", 3)),
		// Real-stack shaped event: string peer key.
		repEvent(1700, 0, "EVILEVIL", trace.EvRepPenalty,
			trace.Str("obs", "timeout"), trace.Float64("score", 1)),
		// The trace runs long enough that no window needs end-clamping.
		{At: us(20000), Peer: 0, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvFinished},
	}
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	rep := a.Report.Reputation
	if len(rep) != 3 {
		t.Fatalf("reputation rows = %+v, want 3", rep)
	}
	// Numeric-aware order: 1, 3, then the string key.
	if rep[0].Peer != "1" || rep[1].Peer != "3" || rep[2].Peer != "EVILEVIL" {
		t.Fatalf("row order = %s, %s, %s", rep[0].Peer, rep[1].Peer, rep[2].Peer)
	}
	p3 := rep[1]
	if p3.Penalties != 2 || p3.Quarantines != 2 || p3.FinalScore != 15 {
		t.Errorf("peer 3 = %+v", p3)
	}
	if p3.QuarantineUS != 6000 {
		t.Errorf("peer 3 quarantine time = %d, want 6000 (merged overlap)", p3.QuarantineUS)
	}
	if rep[2].Penalties != 1 || rep[2].FinalScore != 1 {
		t.Errorf("real-stack row = %+v", rep[2])
	}

	var tb bytes.Buffer
	if err := WriteTable(&tb, a.Report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "penalized peer") || !strings.Contains(tb.String(), "EVILEVIL") {
		t.Errorf("table missing reputation section:\n%s", tb.String())
	}
}

func TestReputationQuarantineClampedAtTraceEnd(t *testing.T) {
	evs := []trace.Event{
		repEvent(1000, 2, "", trace.EvQuarantine,
			trace.Float64("score", 12), trace.Int64("until_us", 50000)),
		{At: us(3000), Peer: 0, Seg: -1, Cat: trace.CatPlayer, Name: trace.EvFinished},
	}
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	rep := a.Report.Reputation
	if len(rep) != 1 || rep[0].QuarantineUS != 2000 {
		t.Fatalf("reputation = %+v, want one row clamped to 2000us", rep)
	}
}

func TestReputationAbsentWithoutRepEvents(t *testing.T) {
	evs := playerEvents(0, 1000, 5000, 7000, trace.CauseSlowFlow)
	a := AnalyzeFiles([]string{"a.jsonl"}, [][]trace.Event{evs})
	if a.Report.Reputation != nil {
		t.Fatalf("reputation = %+v, want nil (omitted from JSON)", a.Report.Reputation)
	}
	var tb bytes.Buffer
	if err := WriteTable(&tb, a.Report); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tb.String(), "penalized peer") {
		t.Error("table rendered a reputation section for a rep-free trace")
	}
}
