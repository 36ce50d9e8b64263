package experiment

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
}

func TestFormatSeconds(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{1.25, "1.2"},
		{9.99, "10.0"},
		{12.4, "12"},
	}
	for _, tt := range tests {
		if got := formatSeconds(tt.in); got != tt.want {
			t.Errorf("formatSeconds(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := Table{
		Title:   "Figure X: test",
		XLabel:  "Bandwidth (kB/s)",
		XValues: []string{"128", "256"},
	}
	f.AddSeries("gop", []string{"24", "10"})
	f.AddSeries("4s", []string{"11", "4"})
	out := f.Render()
	for _, want := range []string{"Figure X: test", "Bandwidth (kB/s)", "gop", "4s", "128", "24", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 data rows.
	if len(lines) != 5 {
		t.Errorf("Render() produced %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFigureValidate(t *testing.T) {
	f := Table{Title: "t", XLabel: "x", XValues: []string{"1", "2"}}
	f.AddSeries("bad", []string{"only-one"})
	if err := f.Validate(); err == nil {
		t.Error("mismatched series: want error")
	}
	if out := f.Render(); !strings.Contains(out, "<") {
		t.Error("Render of invalid figure should embed the error")
	}
	empty := Table{Title: "t"}
	if err := empty.Validate(); err == nil {
		t.Error("empty x-axis: want error")
	}
}

func TestFigureWriteCSV(t *testing.T) {
	f := Table{Title: "t", XLabel: "bw", XValues: []string{"128", "256"}}
	f.AddSeries("gop", []string{"5", "1"})
	f.AddSeries("4s", []string{"8", "1"})
	var buf strings.Builder
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "bw,gop,4s\n128,5,8\n256,1,1\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
	bad := Table{Title: "t"}
	if err := bad.WriteCSV(&buf); err == nil {
		t.Error("invalid figure: want error")
	}
}
