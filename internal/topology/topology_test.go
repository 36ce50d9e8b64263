package topology

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestStarSpec(t *testing.T) {
	sp := Star("paper", 19, 128, 475*time.Millisecond, 5)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sp.Nodes) != 20 {
		t.Errorf("nodes = %d, want 20", len(sp.Nodes))
	}
	if got := sp.Nodes[0]; got.Role != RoleSeeder || got.Name != "seeder" {
		t.Errorf("Nodes[0] = %+v, want the seeder", got)
	}
	if got := len(sp.Leechers()); got != 19 {
		t.Errorf("leechers = %d, want 19", got)
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
	var got Spec
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
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
