package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"p2psplice/internal/experiment"
	"p2psplice/internal/trace"
)

// figuresPaper regenerates Figures 2–6 and the splicing table once at
// the paper's scale: what `cmd/experiment -figure all` does.
var figuresPaper = workload{
	name: "figures_paper",
	why: "One default-scale regeneration of Figures 2-6 and the splicing table, the emulation stack's " +
		"user-facing unit of work: simpeer does most of it, netem and sim the rest, the real stack none.",
	minReps: 3,
	rep:     figuresRep,
}

// figureCalls are the public figure functions, in cmd/experiment's order.
var figureCalls = []struct {
	key  string
	call func(p experiment.Params) (*experiment.FigureResult, error)
}{
	{"fig2", func(p experiment.Params) (*experiment.FigureResult, error) { return p.Fig2Stalls(nil) }},
	{"fig3", func(p experiment.Params) (*experiment.FigureResult, error) { return p.Fig3StallDuration(nil) }},
	{"fig4", func(p experiment.Params) (*experiment.FigureResult, error) { return p.Fig4Startup(nil) }},
	{"fig5", func(p experiment.Params) (*experiment.FigureResult, error) { return p.Fig5Pooling(nil) }},
	{"fig6", func(p experiment.Params) (*experiment.FigureResult, error) { return p.Fig6AdaptiveSplicing(nil) }},
	{"table", func(p experiment.Params) (*experiment.FigureResult, error) { return p.SpliceOverheadTable() }},
}

// figureParams maps the benchmark seed onto the experiment's run seeds;
// the default seed gives exactly experiment.DefaultParams(). The clip
// stays the paper's (VideoSeed 42): which clip it is moves the work of a
// regeneration by ±7 %, more than any bound this benchmark could then
// hold, while the swarm seeds move it by about 1 %.
func figureParams(seed int64, smoke bool) experiment.Params {
	p := experiment.DefaultParams()
	p.BaseSeed = 1000 * seed
	if smoke {
		p.Leechers, p.ClipDuration, p.Runs = 3, 10*time.Second, 1
	}
	return p
}

// childEnv carries a childRequest to a re-exec'd copy of this program.
const childEnv = "P2PSPLICE_BENCH_FIGURES_CHILD"

type childRequest struct {
	Seed   int64 `json:"seed"`
	Smoke  bool  `json:"smoke"`
	Traced bool  `json:"traced"`
	// SpawnedNS is the parent's wall clock just before the exec, so the
	// child's set-up time includes process start.
	SpawnedNS int64 `json:"spawned_ns"`
}

// figuresRep runs one regeneration in a fresh process: that is how users
// run it, and it keeps an in-process result cache from making every
// repetition after the first free.
func figuresRep(rc *repCtx) rep {
	failed := func(format string, args ...any) rep {
		r := rep{Attempted: len(figureCalls), Failed: len(figureCalls)}
		r.problemf(format, args...)
		return r
	}
	exe, err := os.Executable()
	if err != nil {
		return failed("figures_paper: %v", err)
	}
	timeout := 120 * time.Second
	if rc.smoke {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	spawned := time.Now()
	req, _ := json.Marshal(childRequest{Seed: rc.seed, Smoke: rc.smoke, Traced: rc.traced, SpawnedNS: spawned.UnixNano()})
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(req))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child; the context kills a hung one
	if err != nil {
		return failed("figures_paper: child process: %v", err)
	}
	var r rep
	if err := json.Unmarshal(out, &r); err != nil {
		return failed("figures_paper: child output: %v", err)
	}
	if rc.spans != nil {
		rc.spans.graft(rc.parent, r.SpanOriginNS-rc.spans.t0.UnixNano(), r.Spans)
	}
	r.Spans = nil
	return r
}

// figuresChildMain is the child process: one regeneration, reported as
// a rep on standard output.
func figuresChildMain(raw string) int {
	var req childRequest
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		fmt.Fprintln(os.Stderr, "bench: child request:", err)
		return 2
	}
	r := figuresOnce(req)
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "bench: child result:", err)
		return 2
	}
	return 0
}

func figuresOnce(req childRequest) rep {
	r := rep{Attempted: len(figureCalls)}
	rc := &repCtx{seed: req.Seed, smoke: req.Smoke, traced: req.Traced, sideBySide: 1}
	p := figureParams(req.Seed, req.Smoke)
	if req.Traced {
		rc.spans = newSpanRecorder()
		r.SpanOriginNS = rc.spans.t0.UnixNano()
		rc.reg = trace.NewRegistry()
		p.Metrics = rc.reg
	}

	// Set-up: the clip and the paper's four splicings, which every
	// figure shares through the experiment package's cache.
	setup := rc.span("setup")
	if _, err := p.Video(); err != nil {
		r.problemf("figures_paper: video: %v", err)
	}
	for _, sp := range experiment.SplicingSet() {
		if _, err := p.Segments(sp); err != nil {
			r.problemf("figures_paper: splice %s: %v", sp.Name(), err)
		}
	}
	rc.spans.end(setup)
	r.SetupS = float64(time.Now().UnixNano()-req.SpawnedNS) / 1e9

	run := rc.span("run")
	rc.timed(&r, func() {
		for _, f := range figureCalls {
			id := rc.spans.start(run, "experiment."+f.key)
			res, err := f.call(p)
			if s := rc.spans.end(id); req.Traced {
				r.setLayer("experiment."+f.key+"_s", s)
			}
			if err != nil {
				r.Failed++
				r.problemf("figures_paper: %s: %v", f.key, err)
				continue
			}
			r.setExact(f.key+".digest", figureDigest(res))
		}
	})
	rc.spans.end(run)

	if req.Traced {
		snap := rc.reg.Snap()
		segments := mergeHists(snap, "sim_segment_bytes").Count
		r.setCount("simpeer.segments_done", uint64(segments))
		r.setCount("simpeer.pool_decisions", uint64(mergeHists(snap, "sim_pool_size_k").Count))
		r.setCount("simpeer.stalls", uint64(mergeHists(snap, "sim_stall_seconds").Count))
		r.setLayer("simpeer.peer_segments_per_s", float64(segments)/r.WallS)
		r.setLayer("experiment.worker_utilisation", r.CPUS/(r.WallS*float64(runtime.GOMAXPROCS(0))))
		r.Spans = rc.spans.snapshot()
	}
	return r
}

// figureDigest is FNV-1a over a figure's series, by name, and the bit
// patterns of their values.
func figureDigest(res *experiment.FigureResult) uint64 {
	names := make([]string, 0, len(res.Values))
	for name := range res.Values {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range res.Values[name] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
