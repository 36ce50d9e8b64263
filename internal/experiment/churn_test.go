package experiment

import (
	"testing"
	"time"
)

// churnTestParams is a small grid: enough swarm to crash peers in,
// quick enough for the ordinary test run.
func churnTestParams() Params {
	p := QuickParams()
	p.ClipDuration = 24 * time.Second
	p.Leechers = 5
	return p
}

// TestFigChurnShape checks the figure's structure: every series is
// present with one value per churn level, and values are finite.
func TestFigChurnShape(t *testing.T) {
	p := churnTestParams()
	res, err := p.FigChurn(nil)
	if err != nil {
		t.Fatal(err)
	}
	levels := ChurnLevels()
	wantSeries := []string{"gop adaptive", "gop fixed-4", "4s adaptive", "4s fixed-4"}
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
}
