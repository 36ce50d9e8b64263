package experiment

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// These tests enforce the runner's headline guarantee: fanning the figure
// cells out on a worker pool changes nothing. For every figure in the
// registry, the parallel FigureResult must be float-bit-identical
// (math.Float64bits — the measurement packages ban float ==) to the
// Workers=1 output for the same seeds.

// assertBitIdentical fails unless a and b hold exactly the same series with
// exactly the same float bits.
func assertBitIdentical(t *testing.T, context string, serial, parallel map[string][]float64) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: %d series serial vs %d parallel", context, len(serial), len(parallel))
	}
	for name, sv := range serial {
		pv, ok := parallel[name]
		if !ok {
			t.Errorf("%s: series %q missing from parallel result", context, name)
			continue
		}
		if len(sv) != len(pv) {
			t.Errorf("%s/%s: %d values serial vs %d parallel", context, name, len(sv), len(pv))
			continue
		}
		for i := range sv {
			if math.Float64bits(sv[i]) != math.Float64bits(pv[i]) {
				t.Errorf("%s/%s[%d]: serial %v (0x%016x) vs parallel %v (0x%016x)",
					context, name, i, sv[i], math.Float64bits(sv[i]), pv[i], math.Float64bits(pv[i]))
			}
		}
	}
}

// TestParallelMatchesSerial runs every registry figure at QuickParams scale
// with Workers=1 and again at Workers ∈ {2, GOMAXPROCS}, and requires
// bit-identical values. The extension figures are the sharp end of the
// check: their fault plans, burst chains and pollution draws must derive
// from each cell's own seed, never from shared or scheduling-dependent
// state.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure equivalence sweep")
	}
	workerCounts := []int{2, runtime.GOMAXPROCS(0)}
	for _, f := range Figures {
		t.Run(f.Key, func(t *testing.T) {
			serialP := QuickParams()
			serialP.Workers = 1
			serial, err := f.Run(serialP)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				par := QuickParams()
				par.Workers = w
				got, err := f.Run(par)
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s Workers=%d", f.Name, w), serial.Values, got.Values)
			}
		})
	}
}

// TestFiguresRegistry pins the registry's contract: unique keys, and the
// default set is the paper's evaluation in the paper's order.
func TestFiguresRegistry(t *testing.T) {
	seen := make(map[string]bool)
	var paper []string
	for _, f := range Figures {
		if f.Key == "" || f.Name == "" || f.Run == nil {
			t.Errorf("incomplete registry entry %+v", f)
		}
		if seen[f.Key] {
			t.Errorf("duplicate figure key %q", f.Key)
		}
		seen[f.Key] = true
		if f.Paper {
			paper = append(paper, f.Key)
		}
	}
	if got, want := strings.Join(paper, ","), "2,3,4,5,6,table"; got != want {
		t.Errorf("paper set = %s, want %s", got, want)
	}
}

// TestParallelMatchesSerialMultiRun repeats the check with Runs > 1 so
// per-point averaging (the only float accumulation the runner performs)
// is covered, and with a non-default seed so nothing leans on the cache
// state other tests populate.
func TestParallelMatchesSerialMultiRun(t *testing.T) {
	base := QuickParams()
	base.ClipDuration = base.ClipDuration / 2
	base.Leechers = 4
	base.Runs = 3
	base.BaseSeed = 7777

	serialP := base
	serialP.Workers = 1
	serial, err := serialP.Fig2Stalls([]int64{128, 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		par := base
		par.Workers = w
		got, err := par.Fig2Stalls([]int64{128, 512})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		assertBitIdentical(t, fmt.Sprintf("Fig2Stalls Runs=3 Workers=%d", w), serial.Values, got.Values)
	}
}
