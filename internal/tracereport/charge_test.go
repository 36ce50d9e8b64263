package tracereport

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/reputation"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/trace"
)

const chargeGoldenPath = "testdata/charge.golden"

// TestChargeTracePinned pins how the emulation charges a download's
// source (core.Flight.Charge) and when: every rep_penalty,
// quarantine_begin and segment_complete line of a traced run, then the
// report's reputation block. Peer 2 is a slowloris for a window, so the
// serves it accepts are reaped by the serve timeout with no byte moved
// (stale_have). The slow-serve floor sits above what a shared link
// delivers, so verified completions are slow serves, and one slow serve
// quarantines its source in the step that stores the segment. To
// regenerate after an intended change:
//
//	go test ./internal/tracereport -run TestChargeTracePinned -update
func TestChargeTracePinned(t *testing.T) {
	segs := make([]simpeer.SegmentMeta, 6)
	for i := range segs {
		segs[i] = simpeer.SegmentMeta{Bytes: 128 << 10, Duration: 2 * time.Second}
	}
	rep := reputation.Default()
	rep.SlowServeCost, rep.QuarantineScore = 10, 10
	rep.SlowServeBytesPerSec = 48 << 10
	buf := trace.NewBuffer()
	cfg := simpeer.SwarmConfig{
		Seed:                 1,
		Leechers:             4,
		BandwidthBytesPerSec: 96 << 10,
		PeerAccessDelay:      25 * time.Millisecond,
		SeederAccessDelay:    25 * time.Millisecond,
		Policy:               core.AdaptivePool{},
		OracleBandwidth:      true,
		JoinSpread:           time.Second,
		Faults:               fault.Slowloris(2, 2*time.Second, 6*time.Second, 1024),
		Reputation:           &rep,
		Tracer:               trace.New(buf),
	}
	if _, err := simpeer.RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	var got []byte
	var slowloris, slowServes int
	for _, ev := range buf.Events() {
		switch ev.Name {
		case trace.EvServeTimeout:
			if ev.ArgStr("kind", "") == fault.AdvSlowloris.String() {
				slowloris++
			}
		case trace.EvRepPenalty, trace.EvQuarantine, trace.EvSegComplete:
			if ev.ArgStr("obs", "") == reputation.ObsSlowServe.String() {
				slowServes++
			}
			got = trace.AppendJSONL(got, ev)
		}
	}
	if slowloris == 0 || slowServes == 0 {
		t.Fatalf("%d slowloris serves reaped, %d slow serves charged: the pin needs both", slowloris, slowServes)
	}
	block, err := json.MarshalIndent(AnalyzeFiles([]string{"charge.jsonl"}, [][]trace.Event{buf.Events()}).Report.Reputation, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(append(got, block...), '\n')

	if *updateGolden {
		if err := os.WriteFile(chargeGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(chargeGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("charge trace differs from %s:\n--- got ---\n%s--- want ---\n%s", chargeGoldenPath, got, want)
	}
}
