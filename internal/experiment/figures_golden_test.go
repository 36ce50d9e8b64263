package experiment

import (
	"os"
	"strings"
	"testing"
)

const figuresGoldenPath = "testdata/figures_quick.golden"

// TestFiguresQuickGolden pins the rendered text of every registry figure
// at QuickParams — what `cmd/experiment -quick -figure <all keys>` prints
// above its summary line. The seed-matrix golden pins single points and
// cmd/bench pins Figures 2-6 digests at default scale; this file is the
// only place the extension figures and the rendering (titles, headers,
// formats, series order) are pinned. Regenerate after an intentional
// model change with:
//
//	go test ./internal/experiment -run TestFiguresQuickGolden -update
func TestFiguresQuickGolden(t *testing.T) {
	var b strings.Builder
	for _, f := range Figures {
		res, err := f.Run(QuickParams())
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		b.WriteString(res.Figure.Render())
		b.WriteByte('\n')
	}
	if *updateGolden {
		if err := os.WriteFile(figuresGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("rendered figures differ from %s\n--- got ---\n%s--- want ---\n%s", figuresGoldenPath, got, want)
	}
}
