// Package topology provides a declarative description of the emulated star
// network — the equivalent of the RSpec snippet in the paper's Figure 1,
// which declares virtual nodes and the bandwidth/latency/loss of the links
// connecting them. A Spec can be validated, resolved into netem node
// configs, and serialized to JSON.
package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"p2psplice/internal/netem"
)

// Role classifies a node's function in an experiment.
type Role string

// Recognized roles.
const (
	RoleSeeder  Role = "seeder"
	RoleLeecher Role = "leecher"
	RoleTraffic Role = "traffic" // cross-traffic generator
)

// Valid reports whether r is a recognized role.
func (r Role) Valid() bool {
	switch r {
	case RoleSeeder, RoleLeecher, RoleTraffic:
		return true
	}
	return false
}

// NodeSpec declares one virtual node and its access link, mirroring the
// paper's per-link RSpec properties (capacity, latency, packet loss).
type NodeSpec struct {
	// Name is the unique node identifier.
	Name string `json:"name"`
	// Role is the node's function.
	Role Role `json:"role"`
	// UplinkKBps and DownlinkKBps are the access-link rates in kB/s.
	// Zero inherits the spec default.
	UplinkKBps   int64 `json:"uplink_kbps,omitempty"`
	DownlinkKBps int64 `json:"downlink_kbps,omitempty"`
	// AccessDelayMs is the one-way delay to the star hub in milliseconds.
	// Zero inherits the spec default (use -1 for a true zero delay).
	AccessDelayMs int `json:"access_delay_ms,omitempty"`
	// LossPct is the access-link loss percentage in [0, 100). Zero
	// inherits the spec default (use -1 for a true zero loss).
	LossPct float64 `json:"loss_pct,omitempty"`
}

// Defaults supplies values for fields NodeSpec leaves zero.
type Defaults struct {
	UplinkKBps    int64   `json:"uplink_kbps"`
	DownlinkKBps  int64   `json:"downlink_kbps"`
	AccessDelayMs int     `json:"access_delay_ms"`
	LossPct       float64 `json:"loss_pct"`
}

// Spec is a complete experiment topology.
type Spec struct {
	// Name labels the topology.
	Name string `json:"name"`
	// Defaults fills unset node fields.
	Defaults Defaults `json:"defaults"`
	// Nodes lists the virtual nodes.
	Nodes []NodeSpec `json:"nodes"`
}

// Star builds the paper's experimental topology: one seeder plus n leechers,
// all with the same access bandwidth, 25 ms leecher access delay (50 ms
// peer-to-peer) and the given seeder delay and loss.
func Star(name string, leechers int, bandwidthKBps int64, seederDelay time.Duration, lossPct float64) Spec {
	sp := Spec{
		Name: name,
		Defaults: Defaults{
			UplinkKBps:    bandwidthKBps,
			DownlinkKBps:  bandwidthKBps,
			AccessDelayMs: 25,
			LossPct:       lossPct,
		},
		Nodes: []NodeSpec{{
			Name:          "seeder",
			Role:          RoleSeeder,
			AccessDelayMs: int(seederDelay / time.Millisecond),
		}},
	}
	for i := 1; i <= leechers; i++ {
		sp.Nodes = append(sp.Nodes, NodeSpec{
			Name: fmt.Sprintf("peer%02d", i),
			Role: RoleLeecher,
		})
	}
	return sp
}

// Validate checks the spec's structural invariants.
func (s *Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("topology: no nodes")
	}
	seen := make(map[string]bool, len(s.Nodes))
	seeders := 0
	for i, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("topology: node %d has no name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("topology: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if !n.Role.Valid() {
			return fmt.Errorf("topology: node %q has unknown role %q", n.Name, n.Role)
		}
		if n.Role == RoleSeeder {
			seeders++
		}
		nc := s.resolve(n)
		if err := nc.Validate(); err != nil {
			return fmt.Errorf("topology: node %q: %w", n.Name, err)
		}
	}
	if seeders == 0 {
		return fmt.Errorf("topology: no seeder node")
	}
	return nil
}

// resolve merges a node spec with the defaults into a netem config.
func (s *Spec) resolve(n NodeSpec) netem.NodeConfig {
	up := n.UplinkKBps
	if up == 0 {
		up = s.Defaults.UplinkKBps
	}
	down := n.DownlinkKBps
	if down == 0 {
		down = s.Defaults.DownlinkKBps
	}
	delay := n.AccessDelayMs
	if delay == 0 {
		delay = s.Defaults.AccessDelayMs
	}
	if delay < 0 {
		delay = 0
	}
	loss := n.LossPct
	if loss == 0 {
		loss = s.Defaults.LossPct
	}
	if loss < 0 {
		loss = 0
	}
	return netem.NodeConfig{
		UplinkBytesPerSec:   up * 1024,
		DownlinkBytesPerSec: down * 1024,
		AccessDelay:         time.Duration(delay) * time.Millisecond,
		LossRate:            loss / 100,
	}
}

// Leechers returns the names of the leecher nodes in declaration order.
func (s *Spec) Leechers() []string {
	var out []string
	for _, n := range s.Nodes {
		if n.Role == RoleLeecher {
			out = append(out, n.Name)
		}
	}
	return out
}

// WriteJSON serializes the spec.
func (s *Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("topology: encode: %w", err)
	}
	return nil
}

// ResolvedByRole resolves every node against the defaults and groups the
// results by role: the (first) seeder, the leechers in declaration order,
// and any traffic nodes. It is the bridge from a declarative spec to the
// emulated swarm.
func (s *Spec) ResolvedByRole() (seeder netem.NodeConfig, leechers, traffic []netem.NodeConfig, err error) {
	if err = s.Validate(); err != nil {
		return netem.NodeConfig{}, nil, nil, err
	}
	seederSet := false
	for _, n := range s.Nodes {
		nc := s.resolve(n)
		switch n.Role {
		case RoleSeeder:
			if !seederSet {
				seeder = nc
				seederSet = true
			}
		case RoleLeecher:
			leechers = append(leechers, nc)
		case RoleTraffic:
			traffic = append(traffic, nc)
		}
	}
	return seeder, leechers, traffic, nil
}
