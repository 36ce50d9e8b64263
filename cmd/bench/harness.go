package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2psplice/internal/trace"
)

// workload is one named set of inputs. Every workload is a closed loop
// of fixed work: a repetition builds its inputs from the seed, does the
// workload's unit of work once, and checks the outputs.
type workload struct {
	name string
	why  string
	// warmup repetitions run first and are reported separately.
	warmup int
	// minReps is the fewest measured repetitions of an untraced pass,
	// whatever the time budget.
	minReps int
	// sideBySide, if above 1, runs that many repetitions of an untraced
	// pass at a time. It is for a workload that mostly waits (a shaped
	// link), whose few CPU-seconds per repetition are otherwise too few
	// samples per pass to be steady; each repetition's cpu_s is then its
	// share of the process's.
	sideBySide int
	// rep runs one repetition. It never blocks past its own timeout: a
	// hang comes back as failed operations.
	rep func(rc *repCtx) rep
	// probes, if set, runs once at the end of a traced pass, outside
	// every timed region, and returns per-layer metrics that isolate
	// one layer.
	probes func(rc *repCtx) map[string]float64
	// passLayer, if set, adds the per-layer metrics read off the
	// pass-wide registry (distributions that need every repetition's
	// samples).
	passLayer func(snap trace.RegistrySnapshot, out map[string]float64)
}

var workloads = []workload{figuresPaper, netemClustered, streamLoopback, streamShaped}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repCtx is what a repetition gets from the harness.
type repCtx struct {
	seed   int64
	smoke  bool
	traced bool
	// spans, reg and tracer are nil in an untraced repetition; all three
	// are nil-safe, so both kinds run the same statements.
	spans  *spanRecorder
	parent int // the enclosing "rep" span
	reg    *trace.Registry
	tracer *trace.Tracer
	// sideBySide is how many repetitions run at once, this one included.
	sideBySide int
}

func (rc *repCtx) span(name string) int { return rc.spans.start(rc.parent, name) }

// rep is what one repetition measured.
type rep struct {
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	// Attempted and Failed count the workload's operations (figure
	// calls, transfers, viewer-segments).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Exact holds digests and counts that are a pure function of the
	// seed: they must repeat across repetitions, and on the default
	// seed equal expected.json.
	Exact map[string]uint64 `json:"exact,omitempty"`
	// Layer holds this repetition's per-layer measurements (traced only).
	Layer map[string]float64 `json:"layer,omitempty"`
	// Problems lists output checks that failed.
	Problems []string `json:"problems,omitempty"`
	// Spans and SpanOriginNS carry a child process's spans to the parent.
	Spans        []span `json:"spans,omitempty"`
	SpanOriginNS int64  `json:"span_origin_ns,omitempty"`
}

func (r *rep) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *rep) setExact(name string, v uint64) {
	if r.Exact == nil {
		r.Exact = map[string]uint64{}
	}
	r.Exact[name] = v
}

func (r *rep) setLayer(name string, v float64) {
	if r.Layer == nil {
		r.Layer = map[string]float64{}
	}
	r.Layer[name] = v
}

// setCount records a count that is both a per-layer metric and exact.
func (r *rep) setCount(name string, v uint64) {
	r.setExact(name, v)
	r.setLayer(name, float64(v))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM), 0 where
// /proc is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// timed runs fn as the repetition's timed region: wall and CPU time
// always, and in a traced repetition the CPU profile bucketed by layer
// plus the heap traffic of the region.
func (rc *repCtx) timed(r *rep, fn func()) {
	measure := func() {
		cpu0, t0 := cpuSeconds(), time.Now()
		fn()
		r.WallS, r.CPUS = time.Since(t0).Seconds(), (cpuSeconds()-cpu0)/float64(rc.sideBySide)
	}
	if !rc.traced {
		measure()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prof, err := cpuProfile(measure)
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.problemf("cpu profile: %v", err)
		return
	}
	for bucket, s := range bucketProfile(prof) {
		r.setLayer(bucket+".self_cpu_s", s)
	}
	r.setLayer("profile.samples", float64(prof.Samples))
	r.setLayer("runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	r.setLayer("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.setLayer("runtime.peak_rss_mb", peakRSSMB())
}

// options selects and sizes one pass over one workload.
type options struct {
	seed    int64
	seconds float64 // measuring budget; repetitions start while it lasts
	reps    int     // if positive, exactly this many rounds: a repetition, a side-by-side batch, or an untraced/traced pair
	traced  bool
	smoke   bool
}

func (o options) scale() string {
	if o.smoke {
		return "smoke"
	}
	return "full"
}

// repTimes is the end-to-end part of a repetition, kept per repetition
// in the results file.
type repTimes struct {
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
}

// metricResult is one metric of one pass: its distribution over the
// repetitions and the noise floor that goes with it.
type metricResult struct {
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Exact  bool   `json:"exact,omitempty"`
	summary
	// Spread is the measured noise floor: (q3 − q1) ÷ median.
	Spread  float64   `json:"spread"`
	Samples []float64 `json:"samples,omitempty"`
}

// passResult is everything one pass over one workload produced.
type passResult struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      int64    `json:"seed"`
	Scale     string   `json:"scale"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	ElapsedS  float64  `json:"elapsed_s"`
	// Warmup repetitions are reported here and never averaged in.
	Warmup  []repTimes              `json:"warmup,omitempty"`
	Reps    []repTimes              `json:"reps"`
	Metrics map[string]metricResult `json:"metrics"`
	// Exact is the pass's digests and exact counts, formatted.
	Exact map[string]string `json:"exact,omitempty"`

	spans []span
}

// runPass runs one pass: warm-up, then repetitions while the budget
// lasts. An untraced pass measures the end-to-end metrics. A traced
// pass alternates untraced and traced repetitions of the same work, so
// the tracing overhead comes from one process under one load, and
// derives the per-layer metrics from the traced ones.
func runPass(w workload, o options) passResult {
	start := time.Now()
	res := passResult{
		Workload: w.name, Why: w.why, Seed: o.seed, Scale: o.scale(), Traced: o.traced,
		Metrics: map[string]metricResult{},
	}
	var rec *spanRecorder
	var reg *trace.Registry
	var tracer *trace.Tracer
	if o.traced {
		rec = newSpanRecorder()
		reg = trace.NewRegistry()
		// The bounded sampled ring is the tracer configuration
		// cmd/benchswarm measures its overhead with.
		tracer = trace.New(trace.NewRing(65_536, trace.NewHashSampler(o.seed, 0.25, nil)))
	}

	var reps []rep
	fold := func(r rep) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Problems = append(res.Problems, r.Problems...)
	}
	runRep := func(traced bool, sideBySide int) rep {
		rc := &repCtx{seed: o.seed, smoke: o.smoke, traced: traced, sideBySide: sideBySide}
		if traced {
			rc.spans, rc.reg, rc.tracer = rec, reg, tracer
			rc.parent = rec.start(0, "rep")
		}
		r := w.rep(rc)
		r.Traced = traced
		rec.end(rc.parent)
		return r
	}
	// runUntraced runs n untraced repetitions at once.
	runUntraced := func(n int) {
		batch := make([]rep, n)
		var wg sync.WaitGroup
		for i := range batch {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				batch[i] = runRep(false, n)
			}(i)
		}
		wg.Wait()
		for _, r := range batch {
			fold(r)
			reps = append(reps, r)
		}
	}

	for i := 0; i < w.warmup; i++ {
		r := runRep(false, 1)
		fold(r)
		res.Warmup = append(res.Warmup, repTimes{SetupS: r.SetupS, WallS: r.WallS, CPUS: r.CPUS})
	}
	minReps, sideBySide := w.minReps, max(1, w.sideBySide)
	if o.traced {
		minReps, sideBySide = 1, 1
	}
	for i := 0; ; i++ {
		if o.reps > 0 {
			if i >= o.reps {
				break
			}
		} else if len(reps) >= minReps && time.Since(start).Seconds() >= o.seconds {
			break
		}
		runUntraced(sideBySide)
		if o.traced {
			r := runRep(true, 1)
			fold(r)
			reps = append(reps, r)
		}
	}

	res.checkExact(reps, o)
	res.aggregate(reps, o)
	if o.traced {
		probeCtx := &repCtx{seed: o.seed, smoke: o.smoke, traced: true, spans: rec, sideBySide: 1}
		layer := map[string]float64{}
		if w.probes != nil {
			layer = w.probes(probeCtx)
		}
		if w.passLayer != nil {
			w.passLayer(reg.Snap(), layer)
		}
		for name, v := range layer {
			res.setMetric(name, []float64{v})
		}
		// Every per-layer metric is reported; one the workload does not
		// exercise reads 0.
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				res.setMetric(d.name, []float64{0})
			}
		}
		res.spans = rec.snapshot()
	}
	res.Correct = len(res.Problems) == 0
	res.ElapsedS = time.Since(start).Seconds()
	return res
}

func (res *passResult) setMetric(name string, samples []float64) {
	d, ok := findMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in the metric table") // a bug in this program
	}
	s := summarize(samples)
	res.Metrics[name] = metricResult{
		Unit: d.unit, Better: d.better, Exact: d.exact,
		summary: s, Spread: s.spread(), Samples: samples,
	}
}

// checkExact holds every repetition's digests and exact counts against
// the first repetition's, and on the default seed against expected.json.
func (res *passResult) checkExact(reps []rep, o options) {
	seen := map[string]uint64{}
	for i, r := range reps {
		for name, v := range r.Exact {
			if first, ok := seen[name]; !ok {
				seen[name] = v
			} else if first != v {
				res.Problems = append(res.Problems, fmt.Sprintf("%s: repetition %d has %s, an earlier one %s",
					name, i, formatExact(name, v), formatExact(name, first)))
			}
		}
	}
	res.Exact = map[string]string{}
	for name, v := range seen {
		res.Exact[name] = formatExact(name, v)
	}
	if o.seed != defaultSeed {
		return
	}
	want := expectedFor(o.scale(), res.Workload)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, ok := res.Exact[name]
		// Registry-derived counts exist only in traced repetitions.
		if !ok && !o.traced {
			continue
		}
		if got != want[name] {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: got %q, expected.json pins %q", name, got, want[name]))
		}
	}
}

// aggregate turns the repetitions into metric distributions.
func (res *passResult) aggregate(reps []rep, o options) {
	var setup, wall, cpu, tracedWall, tracedCPU []float64
	layer := map[string][]float64{}
	for _, r := range reps {
		res.Reps = append(res.Reps, repTimes{Traced: r.Traced, SetupS: r.SetupS, WallS: r.WallS, CPUS: r.CPUS})
		if !r.Traced {
			setup, wall, cpu = append(setup, r.SetupS), append(wall, r.WallS), append(cpu, r.CPUS)
			continue
		}
		tracedWall, tracedCPU = append(tracedWall, r.WallS), append(tracedCPU, r.CPUS)
		for name, v := range r.Layer {
			layer[name] = append(layer[name], v)
		}
	}
	res.setMetric("setup_s", setup)
	res.setMetric("wall_s", wall)
	res.setMetric("cpu_s", cpu)
	if !o.traced {
		return
	}
	var bucketSum float64
	for name, vals := range layer {
		switch {
		case strings.HasSuffix(name, ".self_cpu_s"):
			// Means, so that the buckets add up to the mean traced cpu_s.
			m := sum(vals) / float64(len(vals))
			bucketSum += m
			res.setMetric(name, []float64{m})
		case name == "profile.samples":
			res.setMetric(name, []float64{sum(vals)})
		default:
			res.setMetric(name, vals)
		}
	}
	if c := sum(tracedCPU); c > 0 {
		res.setMetric("profile.coverage", []float64{bucketSum * float64(len(tracedCPU)) / c})
	}
	if u := median(wall); u > 0 {
		res.setMetric("trace.overhead_share", []float64{(median(tracedWall) - u) / u})
	}
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}
