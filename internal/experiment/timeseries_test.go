package experiment

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/trace"
	"p2psplice/internal/tracereport"
)

// TestTimeSeriesIdenticalAcrossWorkers proves the windowed series that
// `splicetrace timeseries` rebuilds from a sweep's JSONL traces is
// bit-identical whatever the worker count: each cell's log is fixed by
// its seed, and the windows are exact integer aggregates. The CSV render
// is compared too: one read path feeds every export, so byte-level
// stability follows snapshot equality.
func TestTimeSeriesIdenticalAcrossWorkers(t *testing.T) {
	snaps := make([]trace.TSSnapshot, 0, 2)
	for _, workers := range []int{1, 2} {
		p := tracedParams()
		p.Workers = workers
		p.TraceDir = t.TempDir()
		if _, err := p.Fig2Stalls([]int64{128}); err != nil {
			t.Fatal(err)
		}
		snap, err := tracereport.BuildTimeSeriesDir(p.TraceDir, tracereport.TimeSeriesOptions{Window: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatal("time-series snapshot differs across worker counts")
	}
	// The sweep populated the emulation series, so equality is not vacuous.
	totals := map[string]int64{}
	for _, s := range snaps[0].Series {
		for _, w := range s.Windows {
			totals[s.Name] += w.Count
		}
	}
	for _, name := range []string{trace.TSBufferOccupancyUS, trace.TSPoolTargetK, trace.TSInflightFlows, trace.TSSegmentsCompleted} {
		if totals[name] == 0 {
			t.Errorf("series %s has no observations across the sweep", name)
		}
	}
	var a, b bytes.Buffer
	if err := snaps[0].WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := snaps[1].WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("time-series CSV differs across worker counts")
	}
}
