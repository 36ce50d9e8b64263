package netem

import (
	"math"
	"testing"
	"time"

	"p2psplice/internal/sim"
)

// newWith is New with the TCP model replaced: tests vary one field of
// defaultModel to isolate a mechanism.
func newWith(eng *sim.Engine, m model) *Network {
	n := New(eng)
	n.model = m
	return n
}

// instantSetup returns a model with no per-connection costs so transfer
// times are pure bandwidth arithmetic, making assertions exact.
func instantSetup() model {
	c := defaultModel
	c.handshakeRTTs = 0          // disable: exact bandwidth arithmetic
	c.initCwndSegments = 1 << 20 // effectively disable slow start
	c.concurrencyPenalty = 0
	return c
}

func addNode(t *testing.T, n *Network, up, down int64, delay time.Duration, loss float64) NodeID {
	t.Helper()
	id, err := n.AddNode(NodeConfig{
		UplinkBytesPerSec:   up,
		DownlinkBytesPerSec: down,
		AccessDelay:         delay,
		LossRate:            loss,
	})
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	return id
}

func TestSingleFlowSaturatesBottleneck(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	a := addNode(t, n, 100_000, 100_000, 0, 0)
	b := addNode(t, n, 50_000, 50_000, 0, 0)

	var doneAt time.Duration
	_, err := n.StartTransfer(a, b, 100_000, TransferOptions{}, func(f *Flow) {
		doneAt = eng.Now()
		if f.state != flowDone {
			t.Error("flow should be done in its completion callback")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Bottleneck is b's 50 kB/s downlink: 100 kB takes 2 s.
	want := 2 * time.Second
	if diff := (doneAt - want).Abs(); diff > 10*time.Millisecond {
		t.Errorf("completed at %v, want ~%v", doneAt, want)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	// Two uploaders, one downloader: the downlink is the shared bottleneck.
	u1 := addNode(t, n, 1_000_000, 1_000_000, 0, 0)
	u2 := addNode(t, n, 1_000_000, 1_000_000, 0, 0)
	d := addNode(t, n, 1_000_000, 100_000, 0, 0)

	var times []time.Duration
	done := func(*Flow) { times = append(times, eng.Now()) }
	if _, err := n.StartTransfer(u1, d, 100_000, TransferOptions{}, done); err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartTransfer(u2, d, 100_000, TransferOptions{}, done); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Each gets 50 kB/s, so both finish at ~2 s.
	if len(times) != 2 {
		t.Fatalf("got %d completions, want 2", len(times))
	}
	for _, at := range times {
		if diff := (at - 2*time.Second).Abs(); diff > 20*time.Millisecond {
			t.Errorf("completed at %v, want ~2s", at)
		}
	}
}

func TestMaxMinRespectsPerFlowCaps(t *testing.T) {
	// One capped flow (lossy path) and one clean flow share a downlink:
	// the clean flow should take up the slack the capped flow can't use.
	eng := sim.New(1)
	cfg := instantSetup()
	n := newWith(eng, cfg)
	// 5% loss on u1's uplink. With LossEventFactor 0.125, RTT 100 ms:
	// cap = 1.22*1460/(0.1*sqrt(0.00625)) ~= 225 kB/s, below the 300 kB/s
	// fair share of the 600 kB/s downlink, so the cap binds.
	u1 := addNode(t, n, 1_000_000, 1_000_000, 25*time.Millisecond, 0.05)
	u2 := addNode(t, n, 1_000_000, 1_000_000, 25*time.Millisecond, 0)
	d := addNode(t, n, 1_000_000, 600_000, 25*time.Millisecond, 0)

	f1, err := n.StartTransfer(u1, d, 10_000_000, TransferOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := n.StartTransfer(u2, d, 10_000_000, TransferOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	capWant := cfg.mathisC * 1460 / (0.1 * math.Sqrt(0.05*cfg.lossEventFactor))
	if diff := math.Abs(f1.rate - capWant); diff > 1 {
		t.Errorf("lossy flow rate %.0f, want Mathis cap %.0f", f1.rate, capWant)
	}
	if want := 600_000 - capWant; math.Abs(f2.rate-want) > 1 {
		t.Errorf("clean flow rate %.0f, want remainder %.0f", f2.rate, want)
	}
	f1.Cancel()
	eng.RunUntil(6 * time.Second)
	if math.Abs(f2.rate-600_000) > 1 {
		t.Errorf("after cancel, clean flow rate %.0f, want full 600000", f2.rate)
	}
}

func TestHandshakeDelaysFirstByte(t *testing.T) {
	eng := sim.New(1)
	cfg := instantSetup()
	cfg.handshakeRTTs = 1.5
	n := newWith(eng, cfg)
	a := addNode(t, n, 100_000, 100_000, 25*time.Millisecond, 0)
	b := addNode(t, n, 100_000, 100_000, 25*time.Millisecond, 0)

	var doneAt time.Duration
	if _, err := n.StartTransfer(a, b, 100_000, TransferOptions{}, func(*Flow) { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// RTT = 100 ms, handshake = 150 ms, transfer = 1 s.
	want := 1150 * time.Millisecond
	if diff := (doneAt - want).Abs(); diff > 10*time.Millisecond {
		t.Errorf("completed at %v, want ~%v", doneAt, want)
	}

	// Reused connection: only half an RTT of request latency.
	eng2 := sim.New(1)
	n2 := newWith(eng2, cfg)
	a2 := addNode(t, n2, 100_000, 100_000, 25*time.Millisecond, 0)
	b2 := addNode(t, n2, 100_000, 100_000, 25*time.Millisecond, 0)
	var doneAt2 time.Duration
	if _, err := n2.StartTransfer(a2, b2, 100_000, TransferOptions{ReuseConnection: true}, func(*Flow) { doneAt2 = eng2.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(0); err != nil {
		t.Fatal(err)
	}
	if doneAt2 >= doneAt {
		t.Errorf("reused connection (%v) should beat fresh connection (%v)", doneAt2, doneAt)
	}
}

func TestSlowStartPenalizesSmallTransfers(t *testing.T) {
	// With slow start, downloading 10 x 100kB takes longer than 1 x 1MB:
	// the per-transfer ramp (and handshakes) dominate short flows.
	cfg := defaultModel
	elapsed := func(pieces int, size int64) time.Duration {
		eng := sim.New(1)
		n := newWith(eng, cfg)
		a := addNode(t, n, 1_000_000, 1_000_000, 25*time.Millisecond, 0)
		b := addNode(t, n, 1_000_000, 1_000_000, 25*time.Millisecond, 0)
		var finish time.Duration
		var next func(i int)
		next = func(i int) {
			if i == pieces {
				finish = eng.Now()
				return
			}
			if _, err := n.StartTransfer(a, b, size, TransferOptions{}, func(*Flow) { next(i + 1) }); err != nil {
				t.Fatal(err)
			}
		}
		next(0)
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	small := elapsed(10, 100_000)
	big := elapsed(1, 1_000_000)
	if small <= big {
		t.Errorf("10x100kB (%v) should be slower than 1x1MB (%v)", small, big)
	}
}

func TestUnboundedCrossTraffic(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	a := addNode(t, n, 100_000, 100_000, 0, 0)
	b := addNode(t, n, 100_000, 100_000, 0, 0)
	c := addNode(t, n, 100_000, 100_000, 0, 0)

	cross, err := n.StartTransfer(c, b, 0, TransferOptions{Unbounded: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt time.Duration
	if _, err := n.StartTransfer(a, b, 100_000, TransferOptions{}, func(*Flow) { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * time.Second)
	// b's downlink shared: real flow gets 50 kB/s -> 2 s.
	if diff := (doneAt - 2*time.Second).Abs(); diff > 20*time.Millisecond {
		t.Errorf("flow with cross traffic done at %v, want ~2s", doneAt)
	}
	if cross.state == flowDone {
		t.Error("unbounded flow must never complete")
	}
	if cross.Remaining() != math.MaxInt64 {
		t.Error("unbounded flow should report MaxInt64 remaining")
	}
	cross.Cancel()
	if cross.state != flowCancelled {
		t.Error("flow should be cancelled after Cancel")
	}
}

func TestCancelDuringSetup(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := addNode(t, n, 100_000, 100_000, 25*time.Millisecond, 0)
	b := addNode(t, n, 100_000, 100_000, 25*time.Millisecond, 0)
	f, err := n.StartTransfer(a, b, 100_000, TransferOptions{}, func(*Flow) {
		t.Error("cancelled flow completed")
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Cancel()
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(n.flows) != 0 {
		t.Errorf("%d live flows, want 0", len(n.flows))
	}
	// Cancel again: no-op, no panic.
	f.Cancel()
}

func TestBandwidthSchedule(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	a := addNode(t, n, 1_000_000, 1_000_000, 0, 0)
	b := addNode(t, n, 100_000, 100_000, 0, 0)
	eng.At(time.Second, func() {
		if err := n.SetUplink(b, 50_000); err != nil {
			t.Error(err)
		}
		if err := n.SetDownlink(b, 50_000); err != nil {
			t.Error(err)
		}
	})
	var doneAt time.Duration
	if _, err := n.StartTransfer(a, b, 150_000, TransferOptions{}, func(*Flow) { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// 100 kB in the first second at 100 kB/s, remaining 50 kB at 50 kB/s: 2 s.
	if diff := (doneAt - 2*time.Second).Abs(); diff > 20*time.Millisecond {
		t.Errorf("done at %v, want ~2s", doneAt)
	}
}

// A transfer whose ETA lies past the end of virtual time must not wrap
// into the past: 1 TiB over a 1 B/s downlink is still in flight an hour
// in.
func TestHugeTransferDoesNotWrap(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := addNode(t, n, 1<<20, 1<<20, 10*time.Millisecond, 0)
	b := addNode(t, n, 1<<20, 1, 10*time.Millisecond, 0)
	var doneAt time.Duration
	if _, err := n.StartTransfer(a, b, 1<<40, TransferOptions{}, func(*Flow) { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Hour)
	if doneAt != 0 {
		t.Fatalf("1 TiB at 1 B/s completed at %v", doneAt)
	}
}

func TestValidationErrors(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := addNode(t, n, 100, 100, 0, 0)

	if _, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 0, DownlinkBytesPerSec: 1}); err == nil {
		t.Error("zero uplink: want error")
	}
	if _, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1, DownlinkBytesPerSec: 1, AccessDelay: -time.Second}); err == nil {
		t.Error("negative delay: want error")
	}
	if _, err := n.AddNode(NodeConfig{UplinkBytesPerSec: 1, DownlinkBytesPerSec: 1, LossRate: 1}); err == nil {
		t.Error("loss=1: want error")
	}
	if _, err := n.StartTransfer(a, a, 10, TransferOptions{}, nil); err == nil {
		t.Error("self transfer: want error")
	}
	if _, err := n.StartTransfer(a, NodeID(99), 10, TransferOptions{}, nil); err == nil {
		t.Error("unknown dst: want error")
	}
	if _, err := n.StartTransfer(NodeID(99), a, 10, TransferOptions{}, nil); err == nil {
		t.Error("unknown src: want error")
	}
	b := addNode(t, n, 100, 100, 0, 0)
	if _, err := n.StartTransfer(a, b, 0, TransferOptions{}, nil); err == nil {
		t.Error("zero size: want error")
	}
	if err := n.SetUplink(NodeID(99), 10); err == nil {
		t.Error("unknown node SetUplink: want error")
	}
	if err := n.SetUplink(a, 0); err == nil {
		t.Error("zero SetUplink: want error")
	}
	if err := n.SetDownlink(a, -1); err == nil {
		t.Error("negative SetDownlink: want error")
	}
	if _, err := n.RTT(a, NodeID(99)); err == nil {
		t.Error("unknown RTT node: want error")
	}
	if _, err := n.OneWayDelay(NodeID(99), a); err == nil {
		t.Error("unknown OneWayDelay node: want error")
	}
}

func TestDelays(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	seeder := addNode(t, n, 100, 100, 475*time.Millisecond, 0)
	peer := addNode(t, n, 100, 100, 25*time.Millisecond, 0)
	ow, err := n.OneWayDelay(seeder, peer)
	if err != nil {
		t.Fatal(err)
	}
	if ow != 500*time.Millisecond {
		t.Errorf("seeder-peer one-way = %v, want 500ms", ow)
	}
	rtt, err := n.RTT(peer, peer)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 100*time.Millisecond {
		t.Errorf("peer RTT = %v, want 100ms", rtt)
	}
	if len(n.nodes) != 2 {
		t.Errorf("%d nodes, want 2", len(n.nodes))
	}
	if nc := n.nodes[seeder].cfg; nc.AccessDelay != 475*time.Millisecond {
		t.Errorf("seeder config = %+v", nc)
	}
}

func TestDeterministicCompletion(t *testing.T) {
	run := func() []time.Duration {
		eng := sim.New(99)
		n := New(eng)
		var ids []NodeID
		for i := 0; i < 6; i++ {
			ids = append(ids, addNode(t, n, 200_000, 200_000, 25*time.Millisecond, 0.02))
		}
		var times []time.Duration
		for i := 1; i < 6; i++ {
			size := int64(50_000 * i)
			if _, err := n.StartTransfer(ids[0], ids[i], size, TransferOptions{}, func(*Flow) {
				times = append(times, eng.Now())
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("completions: %d and %d, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differed at completion %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestConservationUnderLoad(t *testing.T) {
	// Many flows into one downlink: aggregate rate must not exceed capacity.
	eng := sim.New(5)
	n := newWith(eng, instantSetup())
	d := addNode(t, n, 1_000_000, 300_000, 0, 0)
	var flows []*Flow
	for i := 0; i < 8; i++ {
		u := addNode(t, n, 150_000, 150_000, 0, 0)
		f, err := n.StartTransfer(u, d, 10_000_000, TransferOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	eng.RunUntil(time.Second)
	var sum float64
	for _, f := range flows {
		sum += f.rate
	}
	if sum > 300_000*(1+1e-6) {
		t.Errorf("aggregate rate %.0f exceeds downlink capacity 300000", sum)
	}
	if sum < 300_000*0.999 {
		t.Errorf("aggregate rate %.0f underuses downlink capacity 300000", sum)
	}
}

func TestConcurrencyPenaltyDeratesLink(t *testing.T) {
	// Four flows into one downlink exceed the 3 penalty-free flows by one:
	// aggregate goodput is capacity / (1 + 0.1*1).
	eng := sim.New(1)
	cfg := defaultModel
	cfg.handshakeRTTs = 0
	cfg.initCwndSegments = 1 << 20
	n := newWith(eng, cfg)
	d := addNode(t, n, 1_000_000, 400_000, 0, 0)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		u := addNode(t, n, 1_000_000, 1_000_000, 0, 0)
		f, err := n.StartTransfer(u, d, 50_000_000, TransferOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	eng.RunUntil(time.Second)
	var sum float64
	for _, f := range flows {
		sum += f.rate
	}
	want := 400_000 / (1 + 0.1*1)
	if math.Abs(sum-want) > 1 {
		t.Errorf("aggregate = %.0f, want derated %.0f", sum, want)
	}
	// A single flow pays no penalty.
	for _, f := range flows[1:] {
		f.Cancel()
	}
	eng.RunUntil(2 * time.Second)
	if math.Abs(flows[0].rate-400_000) > 1 {
		t.Errorf("single flow = %.0f, want full 400000", flows[0].rate)
	}
}

func TestFlowAccessors(t *testing.T) {
	eng := sim.New(1)
	n := newWith(eng, instantSetup())
	a := addNode(t, n, 100_000, 100_000, 0, 0)
	b := addNode(t, n, 100_000, 100_000, 0, 0)
	f, err := n.StartTransfer(a, b, 100_000, TransferOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.src != a || f.dst != b || f.Size() != 100_000 {
		t.Error("accessors wrong")
	}
	eng.RunUntil(500 * time.Millisecond)
	rem := f.Remaining()
	if rem <= 0 || rem >= 100_000 {
		t.Errorf("Remaining = %d mid-transfer", rem)
	}
	if len(n.flows) != 1 {
		t.Errorf("%d live flows, want 1", len(n.flows))
	}
	eng.RunUntil(5 * time.Second)
	if f.state != flowDone || f.Remaining() != 0 {
		t.Error("flow should be done with zero remaining")
	}
	if len(n.flows) != 0 {
		t.Errorf("%d live flows after completion, want 0", len(n.flows))
	}
}

// The live flow list holds a flow from StartTransfer until it completes
// or is cancelled, in setup or active, and a completing flow is already
// gone when its own callback runs.
func TestActiveFlowsCounts(t *testing.T) {
	eng := sim.New(1)
	n := New(eng)
	a := addNode(t, n, 100_000, 100_000, 25*time.Millisecond, 0)
	b := addNode(t, n, 100_000, 100_000, 25*time.Millisecond, 0)
	c := addNode(t, n, 100_000, 100_000, 25*time.Millisecond, 0)
	want := func(k int, when string) {
		t.Helper()
		if got := len(n.flows); got != k {
			t.Errorf("live flows %s = %d, want %d", when, got, k)
		}
	}
	start := func(src, dst NodeID, onComplete func(*Flow)) *Flow {
		t.Helper()
		f, err := n.StartTransfer(src, dst, 200_000, TransferOptions{}, onComplete)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	want(0, "on an empty network")
	inSetup := start(a, b, nil)
	active := start(b, c, nil)
	start(c, a, func(*Flow) { want(0, "inside the last flow's completion callback") })
	want(3, "with three flows in setup")
	inSetup.Cancel()
	want(2, "after cancelling a flow in setup")
	eng.RunUntil(time.Second)
	if active.rate <= 0 {
		t.Fatal("flow should be moving bytes after 1s")
	}
	active.Cancel()
	want(1, "after cancelling an active flow")
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	want(0, "after the last flow completed")
}

func TestNewNilEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for nil engine")
		}
	}()
	New(nil)
}
