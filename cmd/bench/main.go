// Command bench is the repository's benchmark: four workloads across
// the emulation stack and the real TCP stack, end-to-end metrics
// measured with telemetry off, and a traced pass that attributes the
// time to layers. BENCHMARK.json at the repository root describes it;
// README.md in this directory documents every workload and metric.
//
// Usage, from the repository root (cmd/bench is a module of its own):
//
//	bash cmd/bench/run.sh                      # every workload, untraced then traced
//	bash cmd/bench/run.sh -workload W -trace 1 # one pass over one workload
//	bash cmd/bench/run.sh -compare A.json B.json
//	bash cmd/bench/run.sh -update-expected
//
// One pass prints every metric by name with its unit, checks every
// output, and ends with one JSON line holding the verdict and medians.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const resultsSchema = "p2psplice/bench/v1"

// resultsFile is what -out receives: the environment the numbers were
// measured in and every pass, each metric with its noise floor.
type resultsFile struct {
	Schema      string       `json:"schema"`
	Environment environment  `json:"environment"`
	Passes      []passResult `json:"passes"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	// Link says what the stream workloads' sockets crossed.
	Link string `json:"link"`
}

func currentEnvironment() environment {
	return environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: firstLine("/proc/sys/kernel/osrelease"), Commit: gitCommit(), Link: "loopback",
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

// gitCommit reads HEAD from .git in the working directory without
// running git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head := firstLine(filepath.Join(".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return firstLine(filepath.Join(".git", ref))
	}
	return head
}

func main() {
	// Every process of the benchmark runs on the same number of threads.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(figuresChildMain(raw))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one pass over this workload (default: every workload, each pass in its own process)")
		seed         = fs.Int64("seed", defaultSeed, "drives every generated input; the default seed's outputs are pinned in expected.json")
		seconds      = fs.Float64("seconds", 15, "measuring budget of one pass: repetitions start while it lasts")
		reps         = fs.Int("reps", 0, "run exactly this many repetitions (untraced/traced pairs in a traced pass) instead of measuring for -seconds")
		traceFlag    = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 runs the traced pass for the per-layer metrics")
		traced       = fs.Bool("traced", true, "without -workload: also run each workload's traced pass")
		out          = fs.String("out", "", "results JSON path (default artifacts/bench/results.json; with -workload, artifacts/bench/<workload>.<pass>.json)")
		smoke        = fs.Bool("smoke", false, "seconds-in-total scale: 3 leechers / 10 s clip figures, 400 peers, 4 s clips")
		compare      = fs.Bool("compare", false, "compare two results files given as arguments; non-zero exit on any regressed metric")
		update       = fs.Bool("update-expected", false, "regenerate cmd/bench/expected.json from the default seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two results files"))
		}
		regressed, err := runCompare(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed > 0 {
			return 1
		}
		return 0
	case *update:
		if err := updateExpected(filepath.Join("cmd", "bench")); err != nil {
			return fail(err)
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	o := options{seed: *seed, seconds: *seconds, reps: *reps, traced: *traceFlag == 1, smoke: *smoke}
	if *workloadName == "" {
		return runAll(o, *traced, *out)
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workloadName))
	}
	return runOne(w, o, *out)
}

const artifactsDir = "artifacts/bench"

func passLabel(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

// runOne runs one pass in this process, prints it, writes its results
// file and span trace, and ends standard output with the result line.
func runOne(w workload, o options, out string) int {
	// A pass that outlives this has hung somewhere no timeout reaches;
	// report that instead of a result.
	limit := max(170*time.Second, time.Duration(3*o.seconds*float64(time.Second)))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: no result after %v\n", w.name, limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res := runPass(w, o)
	printPass(res)
	if out == "" {
		out = filepath.Join(artifactsDir, w.name+"."+passLabel(o.traced)+".json")
	}
	if err := writeResults(out, []passResult{res}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.traced {
		tracePath := filepath.Join(filepath.Dir(out), w.name+".trace.json")
		if err := writeChromeTrace(tracePath, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("span trace: %s (%d spans)\n", tracePath, len(res.spans))
	}
	fmt.Println(resultLine(res))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the pass in the form a driver reads: the verdict, the
// operation counts, and each metric's median — the end-to-end metrics
// of an untraced pass, the per-layer metrics of a traced one.
func resultLine(res passResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.Metrics[d.name].Median, d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // a NaN metric: a bug in this program
	}
	return string(line)
}

func writeResults(path string, passes []passResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(resultsFile{Schema: resultsSchema, Environment: currentEnvironment(), Passes: passes}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printPass prints every metric of the pass by name, with its unit.
func printPass(res passResult) {
	verdict := "outputs correct"
	if !res.Correct {
		verdict = "OUTPUT CHECK FAILED"
	}
	fmt.Printf("== %s  seed %d, %s scale, %s pass: %d repetitions (+%d warm-up) in %.1f s, %d of %d operations failed, %s\n",
		res.Workload, res.Seed, res.Scale, passLabel(res.Traced), len(res.Reps), len(res.Warmup), res.ElapsedS,
		res.Failed, res.Attempted, verdict)
	for i, p := range res.Problems {
		if i == 10 {
			fmt.Printf("   !! and %d more\n", len(res.Problems)-i)
			break
		}
		fmt.Println("   !!", p)
	}
	for _, wu := range res.Warmup {
		fmt.Printf("   warm-up (not averaged in): setup_s %.4f  wall_s %.4f  cpu_s %.4f\n", wu.SetupS, wu.WallS, wu.CPUS)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	endToEndFirst := func(name string) bool { d, _ := findMetric(name); return d.bound > 0 }
	sort.Slice(names, func(i, j int) bool {
		if ei, ej := endToEndFirst(names[i]), endToEndFirst(names[j]); ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := res.Metrics[name]
		if m.N == 1 {
			fmt.Printf("   %-34s %14.6g %-7s\n", name, m.Median, m.Unit)
			continue
		}
		fmt.Printf("   %-34s %14.6g %-7s [q1 %.6g, q3 %.6g, n %d, spread %.2f%%]\n",
			name, m.Median, m.Unit, m.Q1, m.Q3, m.N, 100*m.Spread)
	}
	keys := make([]string, 0, len(res.Exact))
	for k := range res.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   exact %-28s %s\n", k, res.Exact[k])
	}
}

// runAll runs every workload's passes, each in its own re-exec'd
// process so heap state and peak RSS are not shared, and merges their
// results files into one.
func runAll(o options, withTraced bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out == "" {
		out = filepath.Join(artifactsDir, "results.json")
	}
	dir := filepath.Dir(out)
	var passes []passResult
	status := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && !withTraced {
				continue
			}
			passOut := filepath.Join(dir, w.name+"."+passLabel(traced)+".json")
			trace := "0"
			if traced {
				trace = "1"
			}
			_ = os.Remove(passOut) // never merge a stale pass; a missing file is the usual case
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-reps", fmt.Sprint(o.reps),
				"-trace", trace, "-smoke="+fmt.Sprint(o.smoke), "-out", passOut)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil { // Run waits for the process
				fmt.Fprintf(os.Stderr, "bench: %s (%s): %v\n", w.name, passLabel(traced), err)
				status = 1
			}
			f, err := readResults(passOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				status = 1
				continue
			}
			passes = append(passes, f.Passes...)
		}
	}
	if err := writeResults(out, passes); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("results:", out)
	if status != 0 {
		fmt.Fprintln(os.Stderr, "bench: FAILED: an output check or an operation failed, see above")
	}
	return status
}
