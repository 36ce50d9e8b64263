package topology

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"p2psplice/internal/sim"
)

func TestStarSpec(t *testing.T) {
	sp := Star("paper", 19, 128, 475*time.Millisecond, 5)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sp.Nodes) != 20 {
		t.Errorf("nodes = %d, want 20", len(sp.Nodes))
	}
	if got := sp.SeederName(); got != "seeder" {
		t.Errorf("SeederName = %q", got)
	}
	if got := len(sp.Leechers()); got != 19 {
		t.Errorf("leechers = %d, want 19", got)
	}
}

func TestBuild(t *testing.T) {
	sp := Star("t", 3, 256, 25*time.Millisecond, 5)
	eng := sim.New(1)
	n, ids, err := sp.Build(eng)
	if err != nil {
		t.Fatal(err)
	}
	if n.NodeCount() != 4 {
		t.Errorf("NodeCount = %d, want 4", n.NodeCount())
	}
	seeder := ids["seeder"]
	nc, err := n.Node(seeder)
	if err != nil {
		t.Fatal(err)
	}
	if nc.UplinkBytesPerSec != 256*1024 {
		t.Errorf("seeder uplink = %d, want %d", nc.UplinkBytesPerSec, 256*1024)
	}
	if nc.LossRate != 0.05 {
		t.Errorf("seeder loss = %v, want 0.05", nc.LossRate)
	}
	// Peer-to-peer one-way delay: 25 + 25 ms.
	ow, err := n.OneWayDelay(ids["peer01"], ids["peer02"])
	if err != nil {
		t.Fatal(err)
	}
	if ow != 50*time.Millisecond {
		t.Errorf("peer one-way = %v, want 50ms", ow)
	}
}

func TestResolveDefaultsAndOverrides(t *testing.T) {
	sp := Spec{
		Name:     "x",
		Defaults: Defaults{UplinkKBps: 100, DownlinkKBps: 200, AccessDelayMs: 10, LossPct: 2},
		Nodes: []NodeSpec{
			{Name: "s", Role: RoleSeeder, UplinkKBps: 500, AccessDelayMs: -1, LossPct: -1},
			{Name: "l", Role: RoleLeecher},
		},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	s := sp.resolve(sp.Nodes[0])
	if s.UplinkBytesPerSec != 500*1024 || s.DownlinkBytesPerSec != 200*1024 {
		t.Errorf("override merge wrong: %+v", s)
	}
	if s.AccessDelay != 0 || s.LossRate != 0 {
		t.Errorf("-1 sentinels should produce zero delay/loss: %+v", s)
	}
	l := sp.resolve(sp.Nodes[1])
	if l.UplinkBytesPerSec != 100*1024 || l.AccessDelay != 10*time.Millisecond || l.LossRate != 0.02 {
		t.Errorf("defaults merge wrong: %+v", l)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty", Spec{}},
		{"unnamed node", Spec{Nodes: []NodeSpec{{Role: RoleSeeder}}}},
		{"duplicate", Spec{
			Defaults: Defaults{UplinkKBps: 1, DownlinkKBps: 1},
			Nodes:    []NodeSpec{{Name: "a", Role: RoleSeeder}, {Name: "a", Role: RoleLeecher}},
		}},
		{"bad role", Spec{
			Defaults: Defaults{UplinkKBps: 1, DownlinkKBps: 1},
			Nodes:    []NodeSpec{{Name: "a", Role: "router"}},
		}},
		{"no seeder", Spec{
			Defaults: Defaults{UplinkKBps: 1, DownlinkKBps: 1},
			Nodes:    []NodeSpec{{Name: "a", Role: RoleLeecher}},
		}},
		{"zero bandwidth", Spec{Nodes: []NodeSpec{{Name: "a", Role: RoleSeeder}}}},
		{"loss 100", Spec{
			Defaults: Defaults{UplinkKBps: 1, DownlinkKBps: 1, LossPct: 100},
			Nodes:    []NodeSpec{{Name: "a", Role: RoleSeeder}},
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sp := Star("rt", 2, 128, 475*time.Millisecond, 5)
	var buf bytes.Buffer
	if err := sp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != sp.Name || len(got.Nodes) != len(sp.Nodes) {
		t.Error("round-trip mismatch")
	}
	for i := range got.Nodes {
		if got.Nodes[i] != sp.Nodes[i] {
			t.Errorf("node %d mismatch: %+v vs %+v", i, got.Nodes[i], sp.Nodes[i])
		}
	}
}

func TestReadJSONRejects(t *testing.T) {
	cases := []string{
		"not json",
		`{"name":"x","bogus":1}`,
		`{"name":"x","defaults":{"uplink_kbps":1,"downlink_kbps":1,"access_delay_ms":0,"loss_pct":0},"nodes":[]}`,
	}
	for _, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ReadJSON(%q): want error", in)
		}
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	var sp Spec
	if _, _, err := sp.Build(sim.New(1)); err == nil {
		t.Error("want error for invalid spec")
	}
}

func TestRoleValid(t *testing.T) {
	if !RoleSeeder.Valid() || !RoleLeecher.Valid() || !RoleTraffic.Valid() {
		t.Error("defined roles should be valid")
	}
	if Role("x").Valid() {
		t.Error("unknown role should be invalid")
	}
}

func TestResolvedByRole(t *testing.T) {
	sp := Star("r", 3, 256, 475*time.Millisecond, 5)
	sp.Nodes = append(sp.Nodes, NodeSpec{Name: "noise", Role: RoleTraffic, UplinkKBps: 64})
	seeder, leechers, traffic, err := sp.ResolvedByRole()
	if err != nil {
		t.Fatal(err)
	}
	if seeder.AccessDelay != 475*time.Millisecond {
		t.Errorf("seeder delay = %v", seeder.AccessDelay)
	}
	if len(leechers) != 3 {
		t.Fatalf("leechers = %d, want 3", len(leechers))
	}
	for i, l := range leechers {
		if l.UplinkBytesPerSec != 256*1024 {
			t.Errorf("leecher %d uplink = %d", i, l.UplinkBytesPerSec)
		}
		if l.LossRate != 0.05 {
			t.Errorf("leecher %d loss = %v", i, l.LossRate)
		}
	}
	if len(traffic) != 1 || traffic[0].UplinkBytesPerSec != 64*1024 {
		t.Errorf("traffic = %+v", traffic)
	}
	var bad Spec
	if _, _, _, err := bad.ResolvedByRole(); err == nil {
		t.Error("invalid spec: want error")
	}
}

func TestSeederNameEmpty(t *testing.T) {
	var sp Spec
	if got := sp.SeederName(); got != "" {
		t.Errorf("SeederName of empty spec = %q", got)
	}
}
