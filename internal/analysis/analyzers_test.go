package analysis_test

import (
	"strings"
	"testing"

	"p2psplice/internal/analysis"
	"p2psplice/internal/analysis/analysistest"
)

// Each analyzer is exercised against a golden fixture under testdata/.
// The want-comments make these tests fail if the analyzer is disabled
// or stops reporting, and the scope tests pin the package matching.

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/determinism", "p2psplice/internal/sim", analysis.All()...)
}

func TestDeterminismOutOfScope(t *testing.T) {
	analysistest.RunNoMatch(t, "testdata/determinism", analysis.Determinism, "p2psplice/internal/peer")
}

func TestMutexguard(t *testing.T) {
	analysistest.Run(t, "testdata/mutexguard", "p2psplice/internal/anywhere", analysis.Mutexguard)
}

func TestGolifecycle(t *testing.T) {
	analysistest.Run(t, "testdata/golifecycle", "p2psplice/internal/anywhere", analysis.Golifecycle)
}

func TestWireerr(t *testing.T) {
	analysistest.Run(t, "testdata/wireerr", "p2psplice/internal/wire", analysis.Wireerr)
}

func TestWireerrOutOfScope(t *testing.T) {
	analysistest.RunNoMatch(t, "testdata/wireerr", analysis.Wireerr, "p2psplice/internal/sim")
}

func TestFloatcmp(t *testing.T) {
	analysistest.Run(t, "testdata/floatcmp", "p2psplice/internal/metrics", analysis.Floatcmp)
}

func TestFloatcmpOutOfScope(t *testing.T) {
	analysistest.RunNoMatch(t, "testdata/floatcmp", analysis.Floatcmp, "p2psplice/internal/tracker")
}

func TestDetercall(t *testing.T) {
	res := analysistest.RunModule(t, "testdata/detercall", map[string]string{
		"helper":    "p2psplice/internal/helper",
		"sim":       "p2psplice/internal/sim",
		"wallclock": "p2psplice/internal/wallclock",
	}, analysis.All()...)
	// The fixture's one suppression silences a real import finding; it
	// must not read as dead.
	for _, d := range res.DeadIgnores {
		t.Errorf("unexpected dead ignore: %s", d)
	}
}

func TestAtomicguard(t *testing.T) {
	analysistest.RunModule(t, "testdata/atomicguard", map[string]string{
		"state": "p2psplice/internal/state",
		"user":  "p2psplice/internal/user",
	}, analysis.Atomicguard)
}

func TestDeadIgnores(t *testing.T) {
	res := analysistest.RunModule(t, "testdata/deadignore", map[string]string{
		"pkg": "p2psplice/internal/sim/deadfixture",
	}, analysis.Determinism)
	if len(res.Findings) != 0 {
		t.Errorf("live suppression failed: %v", res.Findings)
	}
	if len(res.DeadIgnores) != 1 {
		t.Fatalf("expected exactly one dead ignore, got %v", res.DeadIgnores)
	}
	d := res.DeadIgnores[0]
	if d.Analyzer != "deadignore" || !strings.Contains(d.Message, "determinism") {
		t.Errorf("unexpected dead-ignore finding: %s", d)
	}
}

func TestRegistry(t *testing.T) {
	all := analysis.All()
	if len(all) != 6 {
		t.Fatalf("expected 6 analyzers, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing Name, Doc, or Run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if analysis.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if analysis.ByName("nosuch") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}
