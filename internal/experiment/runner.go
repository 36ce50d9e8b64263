package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"p2psplice/internal/core"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/splicer"
	"p2psplice/internal/trace"
)

// This file is the experiment runner: the worker pool and, on top of it,
// the one driver every figure runs through. Every figure decomposes into
// independent cells — one emulated swarm per (series × x × run) — and
// each cell already owns everything that determines its result: the
// spliced segment list, the swarm config, and its seed (BaseSeed + run).
// Cells therefore run on a bounded worker pool in any order and merge back
// positionally, which keeps the output bit-identical to the serial path
// (DESIGN.md §7; the equivalence and golden tests in this package enforce
// it).

// cell is one independent simulation unit: a single (series × bandwidth ×
// run) point of a figure sweep.
type cell struct {
	// label attributes failures inside a parallel fan-out ("Figure 2/gop").
	label       string
	segs        []simpeer.SegmentMeta
	bandwidthKB int64
	policy      core.Policy
	mod         func(*simpeer.SwarmConfig)
	// run indexes the repetition; the cell's swarm runs with seed
	// BaseSeed + run.
	run int
}

// cellOut is one cell's summary metrics.
type cellOut struct {
	stalls      float64
	stallSecs   float64
	startupSecs float64
}

// schemeFromLabel extracts the splicing-scheme series name from a cell
// label for the segment-histogram label: "Figure 2/gop" → "gop",
// "Figure 6/adaptive@256" → "adaptive", "Churn/4s/low" → "4s".
func schemeFromLabel(label string) string {
	parts := strings.Split(label, "/")
	if len(parts) < 2 {
		return ""
	}
	scheme := parts[1]
	if i := strings.IndexByte(scheme, '@'); i >= 0 {
		scheme = scheme[:i]
	}
	return scheme
}

// runCell executes one emulated swarm, writing trace artifacts when
// Params.TraceDir is set.
func (p Params) runCell(c cell) (cellOut, error) {
	cfg := p.swarmConfig(c.bandwidthKB, c.policy, p.BaseSeed+int64(c.run))
	if c.mod != nil {
		c.mod(&cfg)
	}
	if p.Metrics != nil {
		cfg.Metrics = p.Metrics
		cfg.MetricsScheme = schemeFromLabel(c.label)
	}
	var buf *trace.Buffer
	if p.TraceDir != "" {
		buf = trace.NewBuffer()
		cfg.Tracer = trace.New(buf)
	}
	res, err := simpeer.RunSwarm(cfg, c.segs)
	if err != nil {
		return cellOut{}, fmt.Errorf("experiment: %s: bandwidth %d kB/s (run %d): %w",
			c.label, c.bandwidthKB, c.run, err)
	}
	if buf != nil {
		if err := writeCellTrace(p.TraceDir, c, buf.Events()); err != nil {
			return cellOut{}, err
		}
	}
	sum := res.Summary()
	return cellOut{
		stalls:      sum.MeanStalls,
		stallSecs:   sum.MeanStallSeconds,
		startupSecs: sum.MeanStartupSeconds,
	}, nil
}

// effectiveWorkers resolves the pool size: Params.Workers when positive,
// otherwise GOMAXPROCS.
func (p Params) effectiveWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runCells executes every cell on a bounded worker pool and returns results
// in cell order. Workers=1 (or a single cell) takes a plain serial loop.
// Errors are selected by cell index, not completion order, so the reported
// failure is the same whichever worker hits it first.
func (p Params) runCells(cells []cell) ([]cellOut, error) {
	out := make([]cellOut, len(cells))
	workers := p.effectiveWorkers()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i, c := range cells {
			o, err := p.runCell(c)
			if err != nil {
				return nil, err
			}
			out[i] = o
		}
		return out, nil
	}
	errs := make([]error, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				out[i], errs[i] = p.runCell(cells[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// figure describes one figure as data: rows over an x axis, one averaged
// Point per (row, x), and the measures read off that Point grid. Every
// sweep figure of the evaluation is a value of this type handed to
// Params.run; adding a figure is one such value plus its entry in Figures.
type figure struct {
	title  string
	xLabel string
	// x holds the x-axis labels; len(x) is the sweep length.
	x    []string
	rows []row
	// measures are the plotted values. One measure makes one series per
	// row, named after the row; several make one series per (measure,
	// row), named "<measure>@<row>", measure-major.
	measures []measure
}

// measure picks one plotted value out of a Point and renders it.
type measure struct {
	name   string
	of     func(Point) float64
	format func(float64) string
}

// row is one figure series.
type row struct {
	// name keys the series in FigureResult.Values.
	name string
	// header is the rendered column header when it differs from name.
	header string
	// at yields the cell simulated at x index i; the driver fills in run.
	at func(i int) (cell, error)
}

// cellFor assembles the cell that streams sp's splicing of the clip.
func (p Params) cellFor(label string, sp splicer.Splicer, bandwidthKB int64,
	policy core.Policy, mod func(*simpeer.SwarmConfig)) (cell, error) {
	segs, err := p.Segments(sp)
	if err != nil {
		return cell{}, fmt.Errorf("%s: %w", sp.Name(), err)
	}
	return cell{label: label, segs: segs, bandwidthKB: bandwidthKB, policy: policy, mod: mod}, nil
}

// points fans every (row × x × run) cell out on the worker pool and merges
// the results back positionally: points[r][i] is row r at x index i,
// averaged over Runs exactly as the serial runner averaged (same
// accumulation order, so the floats are bit-identical).
func (p Params) points(rows []row, nx int) ([][]Point, error) {
	points := make([][]Point, len(rows))
	cells := make([]cell, 0, len(rows)*nx*p.Runs)
	for r, row := range rows {
		points[r] = make([]Point, nx)
		for i := range points[r] {
			c, err := row.at(i)
			if err != nil {
				return nil, err
			}
			points[r][i].BandwidthKB = c.bandwidthKB
			for c.run = 0; c.run < p.Runs; c.run++ {
				cells = append(cells, c)
			}
		}
	}
	outs, err := p.runCells(cells)
	if err != nil {
		return nil, err
	}
	for r := range points {
		for i := range points[r] {
			points[r][i] = averageCells(points[r][i].BandwidthKB, outs[:p.Runs])
			outs = outs[p.Runs:]
		}
	}
	return points, nil
}

// run simulates f and renders it: the one driver behind every sweep figure.
func (p Params) run(f figure) (*FigureResult, error) {
	points, err := p.points(f.rows, len(f.x))
	if err != nil {
		return nil, err
	}
	res := &FigureResult{
		Figure: Table{Title: f.title, XLabel: f.xLabel, XValues: f.x},
		Values: make(map[string][]float64, len(f.measures)*len(f.rows)),
	}
	for _, m := range f.measures {
		for r, row := range f.rows {
			nums := make([]float64, len(f.x))
			strs := make([]string, len(f.x))
			for i, pt := range points[r] {
				nums[i] = m.of(pt)
				strs[i] = m.format(nums[i])
			}
			name, header := row.name, row.header
			if header == "" {
				header = name
			}
			if len(f.measures) > 1 {
				name = m.name + "@" + name
				header = m.name + "@" + header
			}
			res.Values[name] = nums
			res.Figure.AddSeries(header, strs)
		}
	}
	return res, nil
}

// averageCells folds one point's repetitions into the figure measurement,
// with the same per-metric accumulation the serial runner used.
func averageCells(bandwidthKB int64, outs []cellOut) Point {
	stalls := make([]float64, len(outs))
	stallSecs := make([]float64, len(outs))
	startups := make([]float64, len(outs))
	for i, o := range outs {
		stalls[i] = o.stalls
		stallSecs[i] = o.stallSecs
		startups[i] = o.startupSecs
	}
	return Point{
		BandwidthKB:  bandwidthKB,
		Stalls:       mean(stalls),
		StallSeconds: mean(stallSecs),
		StartupSecs:  mean(startups),
	}
}

// mean returns the arithmetic mean of xs (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
