package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2psplice/internal/pprofile"
	"p2psplice/internal/trace"
)

// TestMain lets the test binary stand in for the bench binary when
// figures_paper re-executes itself for a repetition.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(figuresChildMain(raw))
	}
	os.Exit(m.Run())
}

func TestSummarizeMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want quartiles 2.75, 5.5, 8.25", s)
	}
	if got := s.spread(); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if s := summarize([]float64{3}); s.Median != 3 || s.Q1 != 3 || s.Q3 != 3 {
		t.Errorf("summarize of one sample = %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestSupportedPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int64
		want float64
		p    float64
		ok   bool
	}{
		{19, 0.99, 0, false},   // not even the median has ten beyond it
		{20, 0.50, 0.50, true}, // exactly ten beyond the median
		{200, 0.99, 0.95, true},
		{1000, 0.99, 0.99, true},
		{5000, 0.99, 0.99, true},
	}
	for _, c := range cases {
		p, ok := supportedPercentile(c.n, c.want)
		if ok != c.ok || math.Abs(p-c.p) > 1e-12 {
			t.Errorf("supportedPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
	}

	reg := trace.NewRegistry()
	h := reg.SecondsHistogram(`lat_seconds{scheme="2s"}`)
	for i := 0; i < 15; i++ {
		h.Observe(1000) // 1 ms
	}
	if got := histQuantileMS(mergeHists(reg.Snap(), "lat_seconds"), 0.99); got != 0 {
		t.Errorf("p99 of 15 samples = %v, want 0 (unsupported)", got)
	}
	for i := 0; i < 15; i++ {
		reg.SecondsHistogram(`lat_seconds{scheme="4s"}`).Observe(1000)
	}
	merged := mergeHists(reg.Snap(), "lat_seconds")
	if merged.Count != 30 {
		t.Fatalf("merged count = %d, want 30 over both labels", merged.Count)
	}
	if got := histQuantileMS(merged, 0.99); got <= 0.5 || got > 1.024 {
		t.Errorf("supported percentile of 30 one-millisecond samples = %v ms, want inside the (0.512, 1.024] bucket", got)
	}
}

func TestHistMedianUpper(t *testing.T) {
	reg := trace.NewRegistry()
	h := reg.Histogram("k")
	for _, k := range []int64{1, 2, 2, 2, 4} {
		h.Observe(k)
	}
	if got := histMedianUpper(mergeHists(reg.Snap(), "k")); got != 2 {
		t.Errorf("median pool size = %v, want 2", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"p2psplice/internal/simpeer.(*peer).fill":               "simpeer",
		"p2psplice/internal/netem.(*Network).reallocate":        "netem",
		"p2psplice/internal/swarmbench.runShard.func2":          "other",
		"p2psplice/internal/trace.Histogram.Observe":            "trace",
		"runtime.mapaccess1_fast64":                             "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                "runtime",
		"internal/runtime/maps.(*Map).getWithKey":               "runtime",
		"internal/runtime/syscall.Syscall6":                     "syscall_net",
		"syscall.Syscall":                                       "syscall_net",
		"internal/poll.(*FD).Read":                              "syscall_net",
		"net.(*conn).Write":                                     "syscall_net",
		"net/http.(*conn).serve":                                "syscall_net",
		"crypto/sha256.block":                                   "hash",
		"hash/fnv.(*sum64a).Write":                              "hash",
		"container/heap.down":                                   "heap_sort",
		"slices.pdqsortCmpFunc[go.shape.struct { a/b.T; x.y }]": "heap_sort",
		"sort.Slice":            "heap_sort",
		"main.streamRep":        "other",
		"encoding/json.Marshal": "other",
		"p2psplice/internal/experiment.Params.runCells.func1":     "experiment",
		"p2psplice/internal/container.(*Manifest).VerifySegment":  "container",
		"p2psplice/internal/wire.(*Reader).ReadInto":              "wire",
		"p2psplice/internal/peer.(*conn).readLoop":                "peer",
		"p2psplice/internal/shaper.(*bucket).take":                "shaper",
		"p2psplice/internal/sim.(*Engine).Step":                   "sim",
		"p2psplice/internal/reputation.(*Table[go.shape.int]).Ok": "reputation",
	}
	for fn, want := range cases {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketProfileSumsToTotal(t *testing.T) {
	p := &pprofile.Profile{
		Total: 10e9,
		Functions: []pprofile.FuncStat{
			{Name: "p2psplice/internal/simpeer.(*peer).fill", Flat: 4e9, Cum: 9e9},
			{Name: "runtime.mapaccess2", Flat: 3e9, Cum: 3e9},
			{Name: "container/heap.down", Flat: 2e9, Cum: 2e9},
			{Name: "some/other.Thing", Flat: 1e9, Cum: 1e9},
		},
	}
	b := bucketProfile(p)
	if len(b) != len(repoLayers)+len(stdBuckets) {
		t.Errorf("%d buckets, want every layer and every standard bucket (%d)", len(b), len(repoLayers)+len(stdBuckets))
	}
	var total float64
	for _, v := range b {
		total += v
	}
	if total != 10 {
		t.Errorf("buckets sum to %v s, want the profile total 10 s", total)
	}
	if b["simpeer"] != 4 || b["runtime"] != 3 || b["heap_sort"] != 2 || b["other"] != 1 || b["netem"] != 0 {
		t.Errorf("buckets = %v", b)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "wait[0]", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "wait[1]", StartNS: 40, EndNS: 80}, // overlaps wait[0] by 20
		{ID: 4, Parent: 1, Name: "inside", StartNS: 50, EndNS: 55},  // wholly covered already
		{ID: 5, Parent: 1, Name: "late", StartNS: 90, EndNS: 120},   // runs past its parent
		{ID: 6, Parent: 2, Name: "grandchild", StartNS: 20, EndNS: 30},
	}
	self := selfTimes(spans)
	// run: 100 − (10..80 = 70) − (90..100 = 10) = 20
	want := map[int]int64{1: 20, 2: 40, 3: 40, 4: 5, 5: 30, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSpanRecorderGraftAndChromeTrace(t *testing.T) {
	var none *spanRecorder
	if id := none.start(0, "x"); id != 0 || none.end(id) != 0 || none.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
	rec := newSpanRecorder()
	root := rec.start(0, "rep")
	rec.graft(root, 1000, []span{
		{ID: 1, Parent: 0, Name: "setup", StartNS: 0, EndNS: 10},
		{ID: 2, Parent: 1, Name: "inner", StartNS: 2, EndNS: 4},
	})
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Parent != spans[1].ID || spans[1].StartNS != 1000 {
		t.Fatalf("grafted spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Name != "inner" || doc.TraceEvents[2].TID != root {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{name: "wall_s", unit: "s", better: "lower", bound: 0.10, floor: 0.020}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 10} }
	cases := []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"same", wall, tight(1), tight(1.005), verdictWithinBound},
		{"worse inside the bound", wall, tight(1), tight(1.08), verdictWithinBound},
		{"worse beyond the bound", wall, tight(1), tight(1.2), verdictRegressed},
		{"beyond the bound but under the floor", wall, tight(0.05), tight(0.06), verdictWithinBound},
		{"better than the baseline's spread", wall, tight(1), tight(0.9), verdictImproved},
		{"better but inside the spread", wall, tight(1), tight(0.995), verdictWithinBound},
		{"spread wider than the bound", wall, wide(1), wide(1.05), verdictUnresolved},
		{"clearly worse despite a wide spread", wall, wide(1), wide(1.5), verdictRegressed},
		{"higher is better, fell", metricDef{better: "higher", bound: 0.1}, tight(100), tight(80), verdictRegressed},
		{"higher is better, rose", metricDef{better: "higher", bound: 0.1}, tight(100), tight(120), verdictImproved},
		{"exact count repeated", metricDef{exact: true}, summary{Median: 7, Q1: 7, Q3: 7}, summary{Median: 7, Q1: 7, Q3: 7}, verdictIdentical},
		{"exact count moved", metricDef{exact: true}, summary{Median: 7, Q1: 7, Q3: 7}, summary{Median: 8, Q1: 8, Q3: 8}, verdictRegressed},
		{"exact count unsteady within a set", metricDef{exact: true}, summary{Median: 7, Q1: 7, Q3: 7}, summary{Median: 7, Q1: 7, Q3: 8}, verdictRegressed},
		{"per-layer metric has no bound", metricDef{better: "lower"}, tight(1), tight(3), verdictNotJudged},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesAndExitOnRegression(t *testing.T) {
	pass := func(wall float64, failed int) passResult {
		p := passResult{Workload: "netem_clustered", Attempted: 100, Failed: failed, Metrics: map[string]metricResult{}}
		p.setMetric("setup_s", []float64{0.3, 0.3, 0.3})
		p.setMetric("wall_s", []float64{wall, wall * 1.001, wall * 0.999})
		p.setMetric("cpu_s", []float64{2, 2, 2})
		return p
	}
	write := func(name string, passes ...passResult) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeResults(path, passes); err != nil {
			t.Fatal(err)
		}
		return path
	}
	traced := func(events float64) passResult {
		tr := passResult{Workload: "netem_clustered", Traced: true, Metrics: map[string]metricResult{}}
		tr.setMetric("netem.events", []float64{events, events})
		tr.setMetric("netem.events_per_s", []float64{4e5})
		return tr
	}
	base := write("a.json", pass(2, 0), traced(836202))
	same := write("b.json", pass(2.01, 0), traced(836202))
	slow := write("c.json", pass(2.7, 0), traced(836202))
	moved := write("d.json", pass(2, 0), traced(836203))
	failing := write("e.json", pass(2, 1), traced(836202))

	var out bytes.Buffer
	if n, err := runCompare(&out, base, same); err != nil || n != 0 {
		t.Errorf("same commit: %d regressed, err %v\n%s", n, err, out.String())
	}
	for _, want := range []string{"wall_s", "netem.events", verdictIdentical, verdictWithinBound, "failed_share"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	for name, path := range map[string]string{"slower wall": slow, "exact count moved": moved, "more failures": failing} {
		out.Reset()
		if n, err := runCompare(&out, base, path); err != nil || n != 1 {
			t.Errorf("%s: %d regressed, err %v; want exactly 1\n%s", name, n, err, out.String())
		}
	}
	if got := run([]string{"-compare", base, slow}); got != 1 {
		t.Errorf("-compare exit code on a regression = %d, want 1", got)
	}
	if got := run([]string{"-compare", base, same}); got != 0 {
		t.Errorf("-compare exit code on agreement = %d, want 0", got)
	}
}

// TestSmokeDrivesEveryWorkload runs one untraced and one traced
// repetition of all four workloads at the -smoke scale, against the
// pinned expectations.
func TestSmokeDrivesEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real sockets and a child process")
	}
	for _, w := range workloads {
		// One at a time: a traced repetition takes the process's CPU profiler.
		t.Run(w.name, func(t *testing.T) {
			res := runPass(w, options{seed: defaultSeed, reps: 1, traced: true, smoke: true})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if len(res.Reps) != 2 || res.Reps[0].Traced || !res.Reps[1].Traced {
				t.Errorf("a traced pass of one pair should be one untraced and one traced repetition, got %+v", res.Reps)
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.name]; m.Median <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.name, m.Median)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("traced pass lacks per-layer metric %s", d.name)
				}
			}
			if len(res.spans) < 4 {
				t.Errorf("only %d spans recorded", len(res.spans))
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(perLayer) {
				t.Errorf("result line = %+v", line)
			}
			if want := expectedFor("smoke", w.name); len(want) == 0 {
				t.Errorf("expected.json pins nothing for %s at smoke scale", w.name)
			}
		})
	}
}

func TestSmokeLayerSharesBearOutTheDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the netem workload")
	}
	res := runPass(netemClustered, options{seed: 5, reps: 1, traced: true, smoke: true})
	if !res.Correct {
		t.Fatalf("problems on a seed with no pinned outputs: %v", res.Problems)
	}
	if got := res.Metrics["simpeer.self_cpu_s"].Median; got != 0 {
		t.Errorf("simpeer.self_cpu_s = %v on netem_clustered, want 0", got)
	}
	if got := res.Metrics["netem.completed_transfers"].Median; got != float64(netemTransfers(netemPeers(true))) {
		t.Errorf("completed transfers = %v, want %d", got, netemTransfers(netemPeers(true)))
	}
}

func TestNetemTransfers(t *testing.T) {
	for peers, want := range map[int]int{40_000: 156_000, 10_000: 39_000, 400: 1560, 41: 39 * 4, 43: (39 + 2) * 4} {
		if got := netemTransfers(peers); got != want {
			t.Errorf("netemTransfers(%d) = %d, want %d", peers, got, want)
		}
	}
}

func TestExpectedJSONCoversEveryWorkload(t *testing.T) {
	e := loadExpected()
	for _, scale := range []string{"smoke", "full"} {
		for _, w := range workloads {
			if len(e[scale][w.name]) == 0 {
				t.Errorf("expected.json has nothing for %s at %s scale", w.name, scale)
			}
		}
	}
	for _, f := range figureCalls {
		if e["full"]["figures_paper"][f.key+".digest"] == "" {
			t.Errorf("expected.json lacks the %s digest at full scale", f.key)
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONAndReadmeMatchTheMetricTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := func(name string) {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not document `%s`", name)
		}
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || len(b.Workloads[i].Why) == 0 || len(b.Workloads[i].Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q", i, b.Workloads[i], w.name)
		}
		documented(w.name)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		documented(d.name)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if strings.HasSuffix(d.name, ".self_cpu_s") {
			continue // documented as one family
		}
		documented(d.name)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", b.Paths)
	}
}
