package tracereport

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"p2psplice/internal/core"
	"p2psplice/internal/fault"
	"p2psplice/internal/simpeer"
	"p2psplice/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the pinned trace golden files")

const linkFlapGoldenPath = "testdata/linkflap.golden"

// TestLinkFlapTracePinned pins what a traced emulated run says about link
// outages: every link_down, link_up, flow_freeze and flow_unfreeze line,
// then the report's flows block. Two outages cover the three ways an
// outage stops a flow: peer 1's link goes down while its next download is
// in request set-up, so the flow activates on a downed link; peer 3's
// goes down under a moving upload, and again before its own download's
// first byte. A later RTO freeze and unfreeze ride along. To regenerate
// after an intended change:
//
//	go test ./internal/tracereport -run TestLinkFlapTracePinned -update
func TestLinkFlapTracePinned(t *testing.T) {
	segs := make([]simpeer.SegmentMeta, 8)
	for i := range segs {
		segs[i] = simpeer.SegmentMeta{Bytes: 192 << 10, Duration: 2 * time.Second}
	}
	buf := trace.NewBuffer()
	cfg := simpeer.SwarmConfig{
		Seed:                 1,
		Leechers:             5,
		BandwidthBytesPerSec: 64 << 10,
		PeerAccessDelay:      25 * time.Millisecond,
		SeederAccessDelay:    25 * time.Millisecond,
		Policy:               core.AdaptivePool{},
		OracleBandwidth:      true,
		JoinSpread:           time.Second,
		Faults: fault.Merge(
			fault.LinkFlap(1, 4369*time.Millisecond, 3*time.Second),
			fault.LinkFlap(3, 13206*time.Millisecond, 2*time.Second)),
		Tracer: trace.New(buf),
	}
	if _, err := simpeer.RunSwarm(cfg, segs); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, ev := range buf.Events() {
		switch ev.Name {
		case trace.EvLinkDown, trace.EvLinkUp, trace.EvFlowFreeze, trace.EvFlowUnfreeze:
			got = trace.AppendJSONL(got, ev)
		}
	}
	flows, err := json.MarshalIndent(AnalyzeFiles([]string{"linkflap.jsonl"}, [][]trace.Event{buf.Events()}).Report.Flows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(append(got, flows...), '\n')

	if *updateGolden {
		if err := os.WriteFile(linkFlapGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(linkFlapGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("link-flap trace differs from %s:\n--- got ---\n%s--- want ---\n%s", linkFlapGoldenPath, got, want)
	}
}
