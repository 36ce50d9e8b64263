package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"p2psplice/internal/trace"
)

// This file writes per-cell trace artifacts when Params.TraceDir is set.
// Tracing is observational only: the cell's swarm runs with a buffering
// tracer whose listeners never perturb the simulation, so figure values are
// bit-identical with TraceDir set or empty (TestTraceDirInert enforces it).

// sanitizeLabel turns a cell label like "Figure 2/gop" into a filename stem
// like "figure-2-gop".
func sanitizeLabel(label string) string {
	var b strings.Builder
	lastDash := true // swallow leading separators
	for _, r := range strings.ToLower(label) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// cellArtifactStem names one cell's artifact inside TraceDir.
func cellArtifactStem(c cell) string {
	return fmt.Sprintf("%s-bw%d-run%d", sanitizeLabel(c.label), c.bandwidthKB, c.run)
}

// writeCellTrace writes one traced cell's event log as <stem>.jsonl. Every
// other view of the cell (stall timeline, report, windowed series) is a
// pure function of that file: `splicetrace report` and `timeseries`
// rebuild them.
func writeCellTrace(dir string, c cell, events []trace.Event) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: trace dir: %w", err)
	}
	path := filepath.Join(dir, cellArtifactStem(c)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: trace artifact: %w", err)
	}
	if err := trace.WriteJSONL(f, events); err != nil {
		f.Close()
		return fmt.Errorf("experiment: trace artifact %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiment: trace artifact %s: %w", path, err)
	}
	return nil
}
