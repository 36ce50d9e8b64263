package netem

import (
	"testing"
	"time"

	"p2psplice/internal/sim"
)

// TestRTOStaggersCrowdedFlows checks that the timeout model fires on
// overloaded links. Under max-min sharing a frozen flow's capacity is
// redistributed, so the *aggregate* finish time is conserved; the observable
// effect is that per-flow completions spread out instead of landing in one
// synchronized batch — exactly the staggering that makes big download pools
// stall repeatedly.
func TestRTOStaggersCrowdedFlows(t *testing.T) {
	run := func(hazard float64) (first, last time.Duration) {
		eng := sim.New(7)
		cfg := defaultModel
		cfg.handshakeRTTs = 0
		cfg.initCwndSegments = 1 << 20
		cfg.concurrencyPenalty = 0 // isolate the RTO effect
		cfg.timeoutHazard = hazard // zero disables
		n := newWith(eng, cfg)
		d := addNode(t, n, 1_000_000, 200_000, 0, 0)
		remaining := 8
		for i := 0; i < 8; i++ {
			u := addNode(t, n, 1_000_000, 1_000_000, 10*time.Millisecond, 0)
			if _, err := n.StartTransfer(u, d, 1_000_000, TransferOptions{}, func(*Flow) {
				if remaining == 8 {
					first = eng.Now()
				}
				remaining--
				if remaining == 0 {
					last = eng.Now()
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		if remaining != 0 {
			t.Fatal("flows never completed")
		}
		return first, last
	}
	cleanFirst, cleanLast := run(0)
	frozenFirst, frozenLast := run(0.3) // aggressive hazard: unambiguous effect
	cleanSpread := cleanLast - cleanFirst
	frozenSpread := frozenLast - frozenFirst
	if cleanSpread > time.Second {
		t.Errorf("clean fair-share run should complete in a near-batch, spread %v", cleanSpread)
	}
	if frozenSpread <= cleanSpread {
		t.Errorf("RTO freezes should stagger completions: clean spread %v, frozen spread %v",
			cleanSpread, frozenSpread)
	}
}

// TestRTONeverFiresUnderFreeFlows checks that uncrowded links never freeze.
func TestRTONeverFiresUnderFreeFlows(t *testing.T) {
	eng := sim.New(3)
	cfg := defaultModel
	cfg.handshakeRTTs = 0
	cfg.initCwndSegments = 1 << 20
	cfg.concurrencyPenalty = 0
	cfg.timeoutHazard = 0.9 // would freeze constantly if eligible
	n := newWith(eng, cfg)
	a := addNode(t, n, 100_000, 100_000, 0, 0)
	b := addNode(t, n, 100_000, 100_000, 0, 0)
	var doneAt time.Duration
	if _, err := n.StartTransfer(a, b, 300_000, TransferOptions{}, func(*Flow) { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// One flow on the link: exactly 3 seconds, no freeze possible.
	if diff := (doneAt - 3*time.Second).Abs(); diff > 20*time.Millisecond {
		t.Errorf("single flow done at %v, want ~3s (no RTO below the free-flow count)", doneAt)
	}
}

// TestRTODeterministic checks that freeze timing is reproducible per seed.
func TestRTODeterministic(t *testing.T) {
	run := func(seed int64) time.Duration {
		eng := sim.New(seed)
		cfg := defaultModel
		cfg.timeoutHazard = 0.2
		n := newWith(eng, cfg)
		d := addNode(t, n, 1_000_000, 150_000, 5*time.Millisecond, 0.02)
		var last time.Duration
		for i := 0; i < 6; i++ {
			u := addNode(t, n, 400_000, 400_000, 5*time.Millisecond, 0.02)
			if _, err := n.StartTransfer(u, d, 500_000, TransferOptions{}, func(*Flow) {
				last = eng.Now()
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return last
	}
	if a, b := run(11), run(11); a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if a, b := run(11), run(12); a == b {
		t.Log("note: different seeds coincided (possible but unlikely)")
	}
}

// TestFrozenFlowRecovers checks a frozen flow resumes and finishes.
func TestFrozenFlowRecovers(t *testing.T) {
	eng := sim.New(5)
	cfg := defaultModel
	cfg.handshakeRTTs = 0
	cfg.initCwndSegments = 1 << 20
	cfg.concurrencyPenalty = 0
	cfg.timeoutHazard = 1.0 // every eligible check freezes
	cfg.timeoutMeanFreeze = 500 * time.Millisecond
	n := newWith(eng, cfg)
	d := addNode(t, n, 1_000_000, 400_000, 0, 0)
	completions := 0
	for i := 0; i < 5; i++ {
		u := addNode(t, n, 1_000_000, 1_000_000, 0, 0)
		if _, err := n.StartTransfer(u, d, 400_000, TransferOptions{}, func(*Flow) {
			completions++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(200000); err != nil {
		t.Fatal(err)
	}
	if completions != 5 {
		t.Errorf("only %d/5 flows completed under heavy freezing", completions)
	}
}
