package fault

import (
	"strings"
	"testing"
	"time"
)

func TestBandwidthProfileCompiles(t *testing.T) {
	samples := []RateSample{
		{At: 0, BytesPerSec: 256_000},
		{At: 10 * time.Second, BytesPerSec: 48_000},
		{At: 25 * time.Second, BytesPerSec: 256_000},
	}
	p, err := BandwidthProfile(3, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(p.Events))
	}
	for i, ev := range p.Events {
		if ev.Kind != KindLinkRate || ev.Node != 3 {
			t.Fatalf("event %d = %+v, want link_rate on node 3", i, ev)
		}
		if ev.At != samples[i].At || ev.BytesPerSec != samples[i].BytesPerSec {
			t.Fatalf("event %d = %+v, want sample %+v", i, ev, samples[i])
		}
	}
	if err := p.Validate(5); err != nil {
		t.Fatalf("compiled profile fails Validate: %v", err)
	}
}

func TestBandwidthProfileRejectsMalformed(t *testing.T) {
	cases := map[string][]RateSample{
		"negative time":  {{At: -time.Second, BytesPerSec: 1000}},
		"duplicate time": {{At: 0, BytesPerSec: 1000}, {At: 0, BytesPerSec: 2000}},
		"unsorted times": {{At: time.Second, BytesPerSec: 1000}, {At: 0, BytesPerSec: 2000}},
		"zero rate":      {{At: 0, BytesPerSec: 0}},
		"negative rate":  {{At: 0, BytesPerSec: -7}},
	}
	for name, samples := range cases {
		if _, err := BandwidthProfile(0, samples); err == nil {
			t.Errorf("BandwidthProfile accepted %s", name)
		}
	}
}

func TestParseBandwidthTrace(t *testing.T) {
	in := `# synthetic dip trace
0 256000

10.5 48000
25 256000
`
	samples, err := ParseBandwidthTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []RateSample{
		{At: 0, BytesPerSec: 256_000},
		{At: 10*time.Second + 500*time.Millisecond, BytesPerSec: 48_000},
		{At: 25 * time.Second, BytesPerSec: 256_000},
	}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(samples), len(want))
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, samples[i], want[i])
		}
	}
	bad := []string{
		"0 1000 extra",
		"abc 1000",
		"0 xyz",
		"5 1000\n5 2000",
		"5 1000\n4 2000",
		"0 -5",
	}
	for _, in := range bad {
		if _, err := ParseBandwidthTrace(strings.NewReader(in)); err == nil {
			t.Errorf("ParseBandwidthTrace accepted %q", in)
		}
	}
}

func TestBurstAndCorruptionWindowsValidate(t *testing.T) {
	m := GEModel{PGood: 0.005, PBad: 0.32, P13: 0.1, P31: 0.6}
	p := Merge(
		BurstLoss(1, 0, 30*time.Second, m),
		Corruption(2, 5*time.Second, 10*time.Second, 15),
	)
	if err := p.Validate(3); err != nil {
		t.Fatalf("valid burst+corruption plan rejected: %v", err)
	}
	bad := []Plan{
		// Zero-Dur burst window.
		{Events: []Event{{Kind: KindBurstLoss, Node: 1, Loss: m}}},
		// Nested burst windows on one node.
		Merge(BurstLoss(1, 0, 20*time.Second, m), BurstLoss(1, 5*time.Second, 5*time.Second, m)),
		// Invalid GE parameters.
		BurstLoss(1, 0, time.Second, GEModel{PGood: 0.5, PBad: 1.5, P13: 0.1, P31: 0.1}),
		BurstLoss(1, 0, time.Second, GEModel{PGood: 0.01, PBad: 0.3, P13: 0, P31: 0.1}),
		// Zero-Dur corruption window.
		{Events: []Event{{Kind: KindCorrupt, Node: 2, Percent: 10}}},
		// Percent outside (0, 100].
		Corruption(2, 0, time.Second, 0),
		Corruption(2, 0, time.Second, 101),
		// Node out of range.
		BurstLoss(9, 0, time.Second, m),
	}
	for i, p := range bad {
		if err := p.Validate(3); err == nil {
			t.Errorf("case %d: invalid plan accepted: %+v", i, p.Events)
		}
	}
}
