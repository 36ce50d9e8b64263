package swarmbench

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"p2psplice/internal/trace"
)

// TestTelemetryInert proves the time-series recorder and the sampled
// ring are pure observers at the swarm-bench layer: the same run with
// and without them attached walks the identical trajectory (digest,
// events, completions, virtual time, allocator stats).
func TestTelemetryInert(t *testing.T) {
	base := Config{Peers: 400, Shards: 2, Seed: 7}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	traced := base
	traced.TimeSeriesWindow = time.Second
	traced.TraceCapacity = 256
	traced.TraceSampleRate = 0.5
	obs, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}

	if obs.Digest != bare.Digest || obs.Events != bare.Events ||
		obs.Completed != bare.Completed || obs.VirtualTime != bare.VirtualTime ||
		obs.Stats != bare.Stats {
		t.Fatalf("telemetry perturbed the run:\nbare:   %+v\ntraced: %+v", bare, obs)
	}
	if obs.Series == nil {
		t.Fatal("traced run returned no telemetry snapshot")
	}
	var total, completions int64
	for _, s := range obs.Series.Series {
		for _, w := range s.Windows {
			total += w.Count
			if s.Name == TSCompletions {
				completions += w.Count
			}
		}
	}
	if total == 0 {
		t.Fatal("telemetry attached but nothing observed")
	}
	// Both shards observe into the one recorder: each completion lands
	// there exactly once.
	if completions != int64(obs.Completed) {
		t.Fatalf("%s counted %d completions, run completed %d", TSCompletions, completions, obs.Completed)
	}
	if got := obs.Trace.Sampled + obs.Trace.Rejected; got != int64(obs.Completed) {
		t.Fatalf("ring accounting leaks: sampled+rejected = %d, completions = %d", got, obs.Completed)
	}
	if obs.Trace.Rejected == 0 || obs.Trace.Sampled == 0 {
		t.Fatalf("0.5 sampling produced a degenerate split: %+v", obs.Trace)
	}
	if bare.Series != nil || bare.Trace != (trace.RingCounts{}) {
		t.Fatalf("untraced run carries telemetry: %+v", bare)
	}
}

// TestTelemetryRepeatable proves the shared recorder's snapshot, ring
// counters, and CSV render are bit-identical across repeated runs:
// sampler verdicts hash the shard seed, and nothing else feeds them.
func TestTelemetryRepeatable(t *testing.T) {
	cfg := Config{
		Peers: 600, Shards: 4, Seed: 11,
		TimeSeriesWindow: time.Second,
		TraceCapacity:    128,
		TraceSampleRate:  0.25,
	}
	var snaps [][]byte
	var ref Result
	for i := 0; i < 2; i++ {
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got.Series == nil {
			t.Fatalf("run %d: no snapshot", i)
		}
		var csv bytes.Buffer
		if err := got.Series.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, csv.Bytes())
		if i == 0 {
			ref = got
			continue
		}
		if got.Digest != ref.Digest {
			t.Errorf("run %d: digest %x, want %x", i, got.Digest, ref.Digest)
		}
		if !reflect.DeepEqual(got.Series, ref.Series) {
			t.Errorf("run %d: telemetry snapshot diverges", i)
		}
		if got.Trace != ref.Trace || got.TraceRetained != ref.TraceRetained {
			t.Errorf("run %d: ring accounting diverges: %+v vs %+v", i, got.Trace, ref.Trace)
		}
		if !bytes.Equal(snaps[i], snaps[0]) {
			t.Errorf("run %d: telemetry CSV differs byte-wise", i)
		}
	}
}
