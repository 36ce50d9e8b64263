package experiment

import (
	"reflect"
	"testing"
	"time"
)

// adversaryTestParams is a small grid: enough leechers for the polluter
// fractions to differ, quick enough for the ordinary test run.
func adversaryTestParams() Params {
	p := QuickParams()
	p.ClipDuration = 24 * time.Second
	p.Leechers = 5
	return p
}

// TestPolluterNodes pins the adversary placement: evenly interleaved
// across leecher IDs, at least one when the fraction is non-zero, never
// more than the leecher count.
func TestPolluterNodes(t *testing.T) {
	cases := []struct {
		leechers int
		pct      float64
		want     []int
	}{
		{19, 0, []int{}},
		{19, 10, []int{1}},
		{19, 25, []int{1, 5, 10, 15}},
		{19, 50, []int{1, 3, 5, 7, 9, 11, 13, 15, 17}},
		{5, 10, []int{1}}, // rounds down to zero, clamped up to one
		{4, 100, []int{1, 2, 3, 4}},
	}
	for _, c := range cases {
		got := polluterNodes(c.leechers, c.pct)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("polluterNodes(%d, %v%%) = %v, want %v", c.leechers, c.pct, got, c.want)
		}
		for _, n := range got {
			if n < 1 || n > c.leechers {
				t.Errorf("polluterNodes(%d, %v%%) placed adversary on node %d", c.leechers, c.pct, n)
			}
		}
	}
}

// TestFigAdversaryShape checks the figure's structure: every series is
// present with one value per adversary level, and values are finite.
func TestFigAdversaryShape(t *testing.T) {
	p := adversaryTestParams()
	res, err := p.FigAdversary(nil)
	if err != nil {
		t.Fatal(err)
	}
	levels := AdversaryLevels()
	wantSeries := []string{"gop rep-on", "gop rep-off", "4s rep-on", "4s rep-off"}
	if len(res.Values) != len(wantSeries) {
		t.Fatalf("figure has %d series, want %d", len(res.Values), len(wantSeries))
	}
	for _, name := range wantSeries {
		vals := res.Values[name]
		if len(vals) != len(levels) {
			t.Fatalf("series %q has %d values for %d levels", name, len(vals), len(levels))
		}
		for i, v := range vals {
			if v < 0 {
				t.Errorf("series %q level %s: negative badness %g", name, levels[i].Name, v)
			}
		}
	}
	if got := len(res.Figure.XValues); got != len(levels) {
		t.Errorf("x axis has %d labels, want %d", got, len(levels))
	}
	// At the honest level the reputation subsystem must be a free rider:
	// rep-on and rep-off see identical swarms, so their measurements are
	// bit-identical.
	for _, scheme := range []string{"gop", "4s"} {
		on, off := res.Values[scheme+" rep-on"][0], res.Values[scheme+" rep-off"][0]
		if on != off {
			t.Errorf("%s: honest-swarm badness differs with reputation on (%v) vs off (%v)",
				scheme, on, off)
		}
	}
}
