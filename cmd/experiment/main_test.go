package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"p2psplice/internal/experiment"
)

func keysOf(figs []experiment.Figure) string {
	keys := make([]string, len(figs))
	for i, f := range figs {
		keys[i] = f.Key
	}
	return strings.Join(keys, ",")
}

// TestSelectFigures: every registry key is dispatchable from -figure,
// "all" is the paper set, lists keep the order given, and an unknown key
// is an error that names it.
func TestSelectFigures(t *testing.T) {
	for _, f := range experiment.Figures {
		got, err := selectFigures(f.Key)
		if err != nil || keysOf(got) != f.Key {
			t.Errorf("selectFigures(%q) = %s, %v", f.Key, keysOf(got), err)
		}
	}
	for spec, want := range map[string]string{
		"all":           "2,3,4,5,6,table",
		"all,churn":     "2,3,4,5,6,table,churn",
		"adversary,2":   "adversary,2",
		"burst,all":     "burst,2,3,4,5,6,table",
		"table,table,3": "table,table,3",
	} {
		got, err := selectFigures(spec)
		if err != nil || keysOf(got) != want {
			t.Errorf("selectFigures(%q) = %s, %v; want %s", spec, keysOf(got), err, want)
		}
	}
	for _, spec := range []string{"", "7", "2,", "all,nope"} {
		if got, err := selectFigures(spec); err == nil {
			t.Errorf("selectFigures(%q) = %s, want an error", spec, keysOf(got))
		}
	}
	if _, err := selectFigures("2,nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown key not named in error: %v", err)
	}
}

// realRun runs -real's workload once for the tests that check it.
var realRun = sync.OnceValues(runRealValidation)

// TestRealValidationFinishes: every real viewer of -real's workload
// completes its download (runRealValidation records a viewer only once
// WaitComplete returns) with a startup above zero. Playback may still be
// running then, so the player's state is not checked.
func TestRealValidationFinishes(t *testing.T) {
	v, err := realRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.real) != realViewers {
		t.Fatalf("got %d completed viewers, want %d", len(v.real), realViewers)
	}
	for i, m := range v.real {
		if m.StartupTime <= 0 {
			t.Errorf("viewer %d: startup %v", i+1, m.StartupTime)
		}
	}
}

// TestRealValidationShaped: the real half takes at least 500 ms, which
// unshaped loopback would not, so the shaper was applied.
func TestRealValidationShaped(t *testing.T) {
	v, err := realRun()
	if err != nil {
		t.Fatal(err)
	}
	if v.realWall < 500*time.Millisecond {
		t.Errorf("real half took %v; shaper apparently inactive", v.realWall)
	}
}
