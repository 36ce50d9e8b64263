package netem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"p2psplice/internal/sim"
)

// Property: at any instant, (1) no link carries more than its capacity,
// (2) no flow exceeds its own cap, and (3) the allocation is Pareto-efficient
// (every active flow is limited by either its cap or a saturated link).
func TestQuickAllocationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng := sim.New(seed)
		n := New(eng)

		nNodes := 3 + r.Intn(8)
		ids := make([]NodeID, nNodes)
		for i := range ids {
			id, err := n.AddNode(NodeConfig{
				UplinkBytesPerSec:   int64(20_000 + r.Intn(500_000)),
				DownlinkBytesPerSec: int64(20_000 + r.Intn(500_000)),
				AccessDelay:         time.Duration(r.Intn(100)) * time.Millisecond,
				LossRate:            float64(r.Intn(8)) / 100,
			})
			if err != nil {
				return false
			}
			ids[i] = id
		}
		var flows []*Flow
		for i := 0; i < 2+r.Intn(12); i++ {
			src := ids[r.Intn(nNodes)]
			dst := ids[r.Intn(nNodes)]
			if src == dst {
				continue
			}
			fl, err := n.StartTransfer(src, dst, int64(100_000+r.Intn(5_000_000)), TransferOptions{}, nil)
			if err != nil {
				return false
			}
			flows = append(flows, fl)
		}
		// Let setups and some ramping happen.
		eng.RunUntil(time.Duration(1+r.Intn(5)) * time.Second)

		// (1) link conservation — against the concurrency-derated effective
		// capacity, since that is what the allocator fills.
		upLoad := make(map[NodeID]float64)
		downLoad := make(map[NodeID]float64)
		upCount := make(map[NodeID]int)
		downCount := make(map[NodeID]int)
		for _, fl := range flows {
			if fl.state != flowActive {
				continue
			}
			upLoad[fl.src] += fl.rate
			downLoad[fl.dst] += fl.rate
			upCount[fl.src]++
			downCount[fl.dst]++
		}
		defCfg := defaultModel
		eff := func(capacity int64, count int) float64 {
			excess := count - defCfg.concurrencyFreeFlows
			if excess < 0 {
				excess = 0
			}
			return float64(capacity) / (1 + defCfg.concurrencyPenalty*float64(excess))
		}
		for id, load := range upLoad {
			nc := n.nodes[id].cfg
			if load > eff(nc.UplinkBytesPerSec, upCount[id])*(1+1e-6)+allocEpsilon {
				t.Logf("uplink %d overloaded: %.0f > %d", id, load, nc.UplinkBytesPerSec)
				return false
			}
		}
		for id, load := range downLoad {
			nc := n.nodes[id].cfg
			if load > eff(nc.DownlinkBytesPerSec, downCount[id])*(1+1e-6)+allocEpsilon {
				t.Logf("downlink %d overloaded: %.0f > %d", id, load, nc.DownlinkBytesPerSec)
				return false
			}
		}
		// (2) per-flow caps and (3) Pareto efficiency
		for _, fl := range flows {
			if fl.state != flowActive {
				continue
			}
			if fl.rate > fl.capLimit()*(1+1e-6) {
				t.Logf("flow exceeds cap: %.0f > %.0f", fl.rate, fl.capLimit())
				return false
			}
			capped := math.Abs(fl.rate-fl.capLimit()) <= fl.capLimit()*1e-6+allocEpsilon
			srcCfg, dstCfg := n.nodes[fl.src].cfg, n.nodes[fl.dst].cfg
			upSat := upLoad[fl.src] >= eff(srcCfg.UplinkBytesPerSec, upCount[fl.src])*(1-1e-6)-allocEpsilon
			downSat := downLoad[fl.dst] >= eff(dstCfg.DownlinkBytesPerSec, downCount[fl.dst])*(1-1e-6)-allocEpsilon
			if !capped && !upSat && !downSat {
				t.Logf("flow %d->%d rate %.0f is neither capped (%.0f) nor on a saturated link",
					fl.src, fl.dst, fl.rate, fl.capLimit())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: total delivered bytes never exceed capacity * time for the
// receiving downlink, and completed flows deliver exactly their size.
func TestQuickByteConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng := sim.New(seed)
		n := New(eng)
		down := int64(50_000 + r.Intn(200_000))
		dst, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1 << 20, DownlinkBytesPerSec: down})
		if err != nil {
			return false
		}
		var total int64
		var completed int64
		for i := 0; i < 1+r.Intn(6); i++ {
			src, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1 << 20, DownlinkBytesPerSec: 1 << 20})
			if err != nil {
				return false
			}
			size := int64(10_000 + r.Intn(1_000_000))
			total += size
			if _, err := n.StartTransfer(src, dst, size, TransferOptions{}, func(fl *Flow) {
				completed += fl.Size()
			}); err != nil {
				return false
			}
		}
		horizon := time.Duration(1+r.Intn(20)) * time.Second
		eng.RunUntil(horizon)
		// Delivered bytes cannot exceed downlink capacity * elapsed time.
		if float64(completed) > float64(down)*horizon.Seconds()*(1+1e-6)+float64(down) {
			t.Logf("completed %d bytes in %v over a %d B/s downlink", completed, horizon, down)
			return false
		}
		eng.RunUntil(10 * time.Minute)
		return completed == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
