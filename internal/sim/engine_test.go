package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

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
// the children some handlers schedule while they fire.
type queueModel struct {
	now   time.Duration
	seq   int
	live  []modelEvent
	fired []int
	child map[int]time.Duration // event id -> delay of the event its handler schedules
}

type modelEvent struct {
	at      time.Duration
	seq, id int
}

func (m *queueModel) add(at time.Duration) (id int) {
	if at < m.now {
		at = m.now
	}
	id = m.seq
	m.live = append(m.live, modelEvent{at: at, seq: m.seq, id: id})
	m.seq++
	return id
}

func (m *queueModel) cancel(id int) {
	for i, ev := range m.live {
		if ev.id == id {
			m.live = append(m.live[:i], m.live[i+1:]...)
			return
		}
	}
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
		m.add(m.now + d)
	}
	return true
}

// Property: under any seeded interleaving of At, Schedule, Cancel, Step
// and RunUntil — with past times, negative delays, ties, cancellations of
// fired and of already-cancelled timers, and handlers that schedule from
// inside a fire — events fire in exactly the order of the sorted model,
// and the clock and Pending agree with it after every call.
func TestQuickQueueMatchesSortedModel(t *testing.T) {
	const never = time.Duration(1<<63 - 1)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New(seed)
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
		ms := func(lo, hi int) time.Duration { return time.Duration(lo+r.Intn(hi-lo)) * time.Millisecond }
		for op := 0; op < 60+r.Intn(200); op++ {
			switch k := r.Intn(10); {
			case k < 3:
				at := e.Now() + ms(-5, 40)
				id := m.add(at)
				if r.Intn(4) == 0 {
					m.child[id] = ms(0, 20)
				}
				timers = append(timers, e.At(at, handler(id)))
			case k < 5:
				d := ms(-3, 30)
				timers = append(timers, e.Schedule(d, handler(m.add(m.now+max(d, 0)))))
			case k < 7:
				if len(timers) > 0 {
					id := r.Intn(len(timers))
					timers[id].Cancel()
					m.cancel(id)
				}
			case k < 9:
				if e.Step() != m.step(never) {
					t.Logf("seed %d: Step disagreed with the model", seed)
					return false
				}
			default:
				deadline := e.Now() + ms(0, 40)
				e.RunUntil(deadline)
				for m.step(deadline) {
				}
				m.now = deadline
			}
			if e.Now() != m.now || e.Pending() != len(m.live) {
				t.Logf("seed %d: now %v pending %d, model now %v live %d", seed, e.Now(), e.Pending(), m.now, len(m.live))
				return false
			}
		}
		if err := e.Run(0); err != nil {
			return false
		}
		for m.step(never) {
		}
		if len(fired) != len(m.fired) {
			t.Logf("seed %d: fired %d events, model %d", seed, len(fired), len(m.fired))
			return false
		}
		for i := range fired {
			if fired[i] != m.fired[i] {
				t.Logf("seed %d: fire %d was event %d, model says %d", seed, i, fired[i], m.fired[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
