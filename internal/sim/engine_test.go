package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func nop() {}

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("simultaneous events fired out of insertion order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	e.Schedule(time.Second, func() {
		fired = append(fired, e.Now())
		e.Schedule(time.Second, func() {
			fired = append(fired, e.Now())
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v, want [1s 2s]", fired)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after Cancel, want 0", e.Pending())
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if !tm.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	var nilTimer *Timer
	nilTimer.Cancel() // must not panic
	if nilTimer.Cancelled() {
		t.Error("nil timer should not report cancelled")
	}
}

func TestNegativeDelayAndPastTime(t *testing.T) {
	e := New(1)
	e.Schedule(time.Second, func() {
		e.Schedule(-5*time.Second, func() {
			if e.Now() != time.Second {
				t.Errorf("negative delay fired at %v, want 1s", e.Now())
			}
		})
		e.At(0, func() {
			if e.Now() != time.Second {
				t.Errorf("past At fired at %v, want 1s", e.Now())
			}
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

// A delay past the end of virtual time fires at its end, not (wrapped
// negative and clamped) now.
func TestScheduleSaturates(t *testing.T) {
	e := New(1)
	var order []string
	e.Schedule(time.Second, func() {
		e.Schedule(math.MaxInt64, func() { order = append(order, "never") })
		e.Schedule(time.Hour, func() { order = append(order, "hour") })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "hour" {
		t.Fatalf("fire order %v, want [hour never]", order)
	}
	if e.Now() != math.MaxInt64 {
		t.Errorf("far-future event fired at %v, want the end of virtual time", e.Now())
	}
}

// Reschedule moves a queued timer and re-queues a fired or cancelled one,
// each time taking a fresh seq: it fires after events already queued for
// its new instant, and no event fires twice.
func TestReschedule(t *testing.T) {
	e := New(1)
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	a := e.Schedule(time.Second, note("a"))
	e.Schedule(2*time.Second, note("b"))
	e.Reschedule(a, 2*time.Second) // queued: moves behind b
	c := e.Schedule(3*time.Second, note("c"))
	c.Cancel()
	e.Reschedule(c, time.Second) // cancelled: queued again
	if c.Cancelled() {
		t.Error("a re-armed timer still reports Cancelled")
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d, want 3", e.Pending())
	}
	e.RunUntil(5 * time.Second)
	e.Reschedule(c, 0) // fired: queued again
	e.Reschedule(a, 0)
	a.Cancel()
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[c b a c]" {
		t.Errorf("fire order %s, want [c b a c]", got)
	}
}

func TestRunBudget(t *testing.T) {
	e := New(1)
	var loop func()
	loop = func() { e.Schedule(time.Millisecond, loop) }
	e.Schedule(0, loop)
	if err := e.Run(100); err == nil {
		t.Error("want budget-exhausted error for livelock")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Errorf("fired %d events after second RunUntil, want 3", len(fired))
	}
}

func TestRunUntilSkipsCancelled(t *testing.T) {
	e := New(1)
	tm := e.Schedule(time.Second, func() { t.Error("cancelled event fired") })
	tm.Cancel()
	e.RunUntil(2 * time.Second)
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestAtNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for nil function")
		}
	}()
	New(1).At(0, nil)
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := New(42)
		var draws []int64
		for i := 0; i < 5; i++ {
			e.Schedule(time.Duration(i)*time.Second, func() {
				draws = append(draws, e.RNG().Int63())
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different RNG draws")
		}
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		var times []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				times = append(times, e.Now())
			})
		}
		if err := e.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The fire observer sees every fired event (and no cancelled ones), and
// its presence changes nothing about execution.
func TestFireObserverCountsFires(t *testing.T) {
	run := func(observe bool) (fired int, times []time.Duration) {
		e := New(11)
		if observe {
			e.SetFireObserver(func(at time.Duration) { fired++ })
		}
		var cancelled *Timer
		for i := 0; i < 5; i++ {
			d := time.Duration(i) * time.Millisecond
			tm := e.Schedule(d, func() { times = append(times, e.Now()) })
			if i == 3 {
				cancelled = tm
			}
		}
		cancelled.Cancel()
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return fired, times
	}
	fired, times := run(true)
	if fired != 4 {
		t.Fatalf("observer saw %d fires, want 4 (cancelled event must not count)", fired)
	}
	_, plain := run(false)
	if len(plain) != len(times) {
		t.Fatalf("observer changed execution: %v vs %v", plain, times)
	}
	for i := range plain {
		if plain[i] != times[i] {
			t.Fatalf("observer changed firing times: %v vs %v", plain, times)
		}
	}
}

// queueModel is the reference the event queue is checked against: the
// live (scheduled, neither fired nor cancelled) events in a plain slice,
// fired by sorting on (at, seq). It mirrors every engine call, including
// the children some handlers schedule while they fire. An event keeps its
// id across re-arms; each (re)queue takes a fresh seq.
type queueModel struct {
	now   time.Duration
	seq   int
	ids   int
	live  []modelEvent
	fired []int
	child map[int]time.Duration // event id -> delay of the event its handler schedules
}

type modelEvent struct {
	at      time.Duration
	seq, id int
}

// after is the instant delay from now, clamped to [now, end of time].
func (m *queueModel) after(d time.Duration) time.Duration {
	if d <= 0 {
		return m.now
	}
	if d > math.MaxInt64-m.now {
		return math.MaxInt64
	}
	return m.now + d
}

func (m *queueModel) add(at time.Duration) (id int) {
	id = m.ids
	m.ids++
	m.queue(id, at)
	return id
}

func (m *queueModel) queue(id int, at time.Duration) {
	m.live = append(m.live, modelEvent{at: max(at, m.now), seq: m.seq, id: id})
	m.seq++
}

func (m *queueModel) cancel(id int) {
	for i, ev := range m.live {
		if ev.id == id {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return
		}
	}
}

func (m *queueModel) reschedule(id int, at time.Duration) {
	m.cancel(id)
	m.queue(id, at)
}

// step fires the earliest live event no later than deadline.
func (m *queueModel) step(deadline time.Duration) bool {
	sort.Slice(m.live, func(i, j int) bool {
		a, b := m.live[i], m.live[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	})
	if len(m.live) == 0 || m.live[0].at > deadline {
		return false
	}
	ev := m.live[0]
	m.live = m.live[1:]
	m.now = ev.at
	m.fired = append(m.fired, ev.id)
	if d, ok := m.child[ev.id]; ok {
		m.add(m.after(d))
	}
	return true
}

// checkHeap verifies the queue's layout: every entry is a live timer at
// the slot its idx names, no entry precedes its parent, and every timer
// not queued says so.
func checkHeap(e *Engine, timers []*Timer) error {
	h := e.events
	for i := range h {
		if h[i].t.idx != i {
			return fmt.Errorf("entry %d has idx %d", i, h[i].t.idx)
		}
		if h[i].t.cancelled {
			return fmt.Errorf("entry %d is cancelled but queued", i)
		}
		if i > 0 && h[i].before(&h[(i-1)/4]) {
			return fmt.Errorf("entry %d precedes its parent", i)
		}
	}
	queued := 0
	for id, tm := range timers {
		if tm.idx >= 0 {
			queued++
			if tm.idx >= len(h) || h[tm.idx].t != tm {
				return fmt.Errorf("event %d claims slot %d, which holds another", id, tm.idx)
			}
		}
	}
	if queued != len(h) {
		return fmt.Errorf("%d timers claim a slot, queue holds %d", queued, len(h))
	}
	return nil
}

// queueScript drives an engine and the sorted model through the same
// ops — At, Schedule, Reschedule, Cancel, Step and RunUntil, with past
// times, negative and far-future delays, ties, cancellations of fired,
// cancelled and re-armed timers, re-arms of fired and cancelled ones, and
// handlers that schedule from inside a fire — drawing every choice from
// pick until more reports false. After each op the heap must be well
// formed and the clock and Pending must agree with the model; at the end
// events must have fired in exactly the model's order.
func queueScript(pick func(n int) int, more func() bool) error {
	const never = time.Duration(math.MaxInt64)
	e := New(1)
	m := &queueModel{child: map[int]time.Duration{}}
	var fired []int
	var timers []*Timer // indexed by event id
	var handler func(id int) func()
	handler = func(id int) func() {
		return func() {
			fired = append(fired, id)
			if d, ok := m.child[id]; ok {
				timers = append(timers, e.Schedule(d, handler(len(timers))))
			}
		}
	}
	ms := func(lo, hi int) time.Duration { return time.Duration(lo+pick(hi-lo)) * time.Millisecond }
	delay := func() time.Duration {
		if pick(32) == 0 {
			return never
		}
		return ms(-3, 30)
	}
	for op := 0; more(); op++ {
		switch k := pick(12); {
		case k < 3:
			at := e.Now() + ms(-5, 40)
			id := m.add(at)
			if pick(4) == 0 {
				m.child[id] = ms(0, 20)
			}
			timers = append(timers, e.At(at, handler(id)))
		case k < 5:
			d := delay()
			timers = append(timers, e.Schedule(d, handler(m.add(m.after(d)))))
		case k < 6:
			if len(timers) > 0 {
				id, d := pick(len(timers)), delay()
				e.Reschedule(timers[id], d)
				m.reschedule(id, m.after(d))
			}
		case k < 8:
			if len(timers) > 0 {
				id := pick(len(timers))
				timers[id].Cancel()
				m.cancel(id)
			}
		case k < 10:
			if e.Step() != m.step(never) {
				return fmt.Errorf("op %d: Step disagreed with the model", op)
			}
		default:
			deadline := e.Now() + ms(0, 40)
			e.RunUntil(deadline)
			for m.step(deadline) {
			}
			m.now = max(m.now, deadline)
		}
		if err := checkHeap(e, timers); err != nil {
			return fmt.Errorf("op %d: %v", op, err)
		}
		if e.Now() != m.now || e.Pending() != len(m.live) {
			return fmt.Errorf("op %d: now %v pending %d, model now %v live %d", op, e.Now(), e.Pending(), m.now, len(m.live))
		}
	}
	if err := e.Run(0); err != nil {
		return err
	}
	for m.step(never) {
	}
	if len(fired) != len(m.fired) {
		return fmt.Errorf("fired %d events, model %d", len(fired), len(m.fired))
	}
	for i := range fired {
		if fired[i] != m.fired[i] {
			return fmt.Errorf("fire %d was event %d, model says %d", i, fired[i], m.fired[i])
		}
	}
	return nil
}

// Property: every seeded op script agrees with the sorted model.
func TestQuickQueueMatchesSortedModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ops := 100 + r.Intn(400)
		err := queueScript(r.Intn, func() bool { ops--; return ops >= 0 })
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzQueue decodes fuzzer bytes into op scripts, one byte per choice,
// and checks each against the sorted model.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 10, 3, 3, 0, 5, 1, 8, 0, 0, 5, 0, 0, 9, 6, 11, 20})
	f.Add([]byte{4, 7, 4, 0, 5, 1, 0, 7, 0, 8, 5, 1, 1, 6, 1, 9, 9, 2, 0, 11, 3})
	f.Add([]byte{2, 1, 9, 0, 3, 40, 1, 2, 0, 5, 2, 3, 8, 8, 6, 2, 7, 1, 5, 0, 64, 9, 11, 39})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024] // bound script length, not coverage
		}
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		if err := queueScript(pick, func() bool { return len(data) > 0 }); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkQueueClusteredShape times the queue at the shape netem_clustered
// runs it at: about 115 000 pending entries, half of all scheduled events
// cancelled before they fire. Each op schedules a keeper within the next
// 10 s, replaces the oldest of 57 500 doomed events (each 20-30 s out, so
// cancelled before its time) with a new one, and fires the earliest
// keeper. It is not an allocation gate; it is the queue's own layer
// number.
func BenchmarkQueueClusteredShape(b *testing.B) {
	const half = 57_500
	e := New(1)
	r := rand.New(rand.NewSource(1))
	within := func(lo time.Duration) time.Duration { return lo + time.Duration(r.Int63n(int64(10*time.Second))) }
	doomed := make([]*Timer, half)
	for i := range doomed {
		e.Schedule(within(0), nop)
		doomed[i] = e.Schedule(within(20*time.Second), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(within(0), nop)
		doomed[i%half].Cancel()
		doomed[i%half] = e.Schedule(within(20*time.Second), nop)
		e.Step()
	}
	b.StopTimer()
	if e.Pending() != 2*half {
		b.Fatalf("%d events pending, want %d: a doomed event fired", e.Pending(), 2*half)
	}
}
