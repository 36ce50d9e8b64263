package player

import (
	"reflect"
	"testing"
	"time"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func newPlayer(t *testing.T, durs ...time.Duration) *Player {
	t.Helper()
	p, err := New(Config{SegmentDurations: durs})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func four(t *testing.T) *Player {
	return newPlayer(t, sec(4), sec(4), sec(4), sec(4))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no segments: want error")
	}
	if _, err := New(Config{SegmentDurations: []time.Duration{0}}); err == nil {
		t.Error("zero duration: want error")
	}
}

func TestStartupTime(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics(sec(1)).State; got != StateWaiting {
		t.Errorf("state = %v, want waiting", got)
	}
	if err := p.OnSegmentComplete(0, sec(2.5)); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics(sec(3))
	if m.StartupTime != sec(2.5) {
		t.Errorf("StartupTime = %v, want 2.5s", m.StartupTime)
	}
	if m.State != StatePlaying {
		t.Errorf("state = %v, want playing", m.State)
	}
}

func TestSmoothPlaybackNoStalls(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	// All segments arrive well ahead of the playhead.
	for i := 0; i < 4; i++ {
		if err := p.OnSegmentComplete(i, sec(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Playback: starts at 0s... startup was 0s (seg 0 at t=0).
	m := p.Metrics(sec(30))
	if m.Stalls != 0 || m.TotalStall != 0 {
		t.Errorf("stalls = %d/%v, want none", m.Stalls, m.TotalStall)
	}
	if m.State != StateFinished {
		t.Errorf("state = %v, want finished", m.State)
	}
	// Started at t=0, 16s of video: finished at 16s.
	if m.FinishedAt != sec(16) {
		t.Errorf("FinishedAt = %v, want 16s", m.FinishedAt)
	}
}

func TestStallAccounting(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(0, sec(1)); err != nil { // play 4s of video from t=1
		t.Fatal(err)
	}
	// Segment 1 arrives at t=7; playhead hit the frontier at t=5.
	if err := p.OnSegmentComplete(1, sec(7)); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics(sec(7))
	if m.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", m.Stalls)
	}
	if m.TotalStall != sec(2) {
		t.Errorf("TotalStall = %v, want 2s", m.TotalStall)
	}
	if len(m.StallIntervals) != 1 || m.StallIntervals[0] != (Interval{Start: sec(5), End: sec(7)}) {
		t.Errorf("intervals = %v, want [{5s 7s}]", m.StallIntervals)
	}
	// Remaining segments arrive instantly; finish without further stalls.
	if err := p.OnSegmentComplete(2, sec(7)); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(3, sec(7)); err != nil {
		t.Fatal(err)
	}
	m = p.Metrics(sec(60))
	if m.Stalls != 1 {
		t.Errorf("final stalls = %d, want 1", m.Stalls)
	}
	// Played 4s (1..5), stalled 2s (5..7), played 12s (7..19).
	if m.FinishedAt != sec(19) {
		t.Errorf("FinishedAt = %v, want 19s", m.FinishedAt)
	}
}

func TestOpenStallCounted(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(0, 0); err != nil {
		t.Fatal(err)
	}
	// Playhead exhausts segment 0 at t=4; still stalled at t=10.
	m := p.Metrics(sec(10))
	if m.State != StateStalled {
		t.Fatalf("state = %v, want stalled", m.State)
	}
	if m.Stalls != 1 || m.TotalStall != sec(6) {
		t.Errorf("open stall = %d/%v, want 1/6s", m.Stalls, m.TotalStall)
	}
	if len(m.StallIntervals) != 0 {
		t.Errorf("open stall should not appear in closed intervals: %v", m.StallIntervals)
	}
}

func TestOutOfOrderCompletionNoResume(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(0, 0); err != nil {
		t.Fatal(err)
	}
	// Segment 2 (non-contiguous) arrives during the stall: no resume.
	if err := p.OnSegmentComplete(2, sec(5)); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics(sec(6)).State; got != StateStalled {
		t.Errorf("state = %v, want still stalled", got)
	}
	// Segment 1 closes the gap at t=8: contiguous jumps to 3, resume.
	if err := p.OnSegmentComplete(1, sec(8)); err != nil {
		t.Fatal(err)
	}
	if got := p.NextMissing(); got != 3 {
		t.Errorf("contiguous = %d, want 3", got)
	}
	if got := p.Metrics(sec(8)).State; got != StatePlaying {
		t.Errorf("state = %v, want playing", got)
	}
	m := p.Metrics(sec(8))
	if m.Stalls != 1 || m.TotalStall != sec(4) {
		t.Errorf("stalls = %d/%v, want 1/4s", m.Stalls, m.TotalStall)
	}
}

func TestBufferedAhead(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if got := p.BufferedAhead(0); got != 0 {
		t.Errorf("initial BufferedAhead = %v, want 0", got)
	}
	if err := p.OnSegmentComplete(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(1, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.BufferedAhead(0); got != sec(8) {
		t.Errorf("BufferedAhead = %v, want 8s", got)
	}
	if got := p.BufferedAhead(sec(3)); got != sec(5) {
		t.Errorf("BufferedAhead at 3s = %v, want 5s", got)
	}
}

func TestSegmentsBeforeStart(t *testing.T) {
	p := four(t)
	for i := 0; i < 4; i++ {
		if err := p.OnSegmentComplete(i, sec(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Start(sec(5)); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics(sec(5))
	if m.StartupTime != 0 || m.State != StatePlaying {
		t.Errorf("pre-buffered start: startup = %v state = %v", m.StartupTime, m.State)
	}
}

func TestDuplicateAndInvalidCompletions(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(0, sec(1)); err != nil {
		t.Errorf("duplicate completion should be ignored, got %v", err)
	}
	if err := p.OnSegmentComplete(-1, 0); err == nil {
		t.Error("negative index: want error")
	}
	if err := p.OnSegmentComplete(4, 0); err == nil {
		t.Error("out-of-range index: want error")
	}
	if !p.completed[0] || p.completed[1] {
		t.Error("completed flags wrong")
	}
}

func TestDoubleStart(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(sec(1)); err == nil {
		t.Error("second Start: want error")
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateIdle: "idle", StateWaiting: "waiting", StatePlaying: "playing",
		StateStalled: "stalled", StateFinished: "finished", State(9): "State(9)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("State(%d).String() = %q, want %q", s, got, w)
		}
	}
}

func TestZeroLengthStallNotCounted(t *testing.T) {
	p := four(t)
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(0, 0); err != nil {
		t.Fatal(err)
	}
	// Segment 1 arrives at exactly the instant the buffer empties.
	if err := p.OnSegmentComplete(1, sec(4)); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics(sec(5))
	if m.Stalls != 0 {
		t.Errorf("zero-length stall counted: %d", m.Stalls)
	}
	if m.State != StatePlaying {
		t.Errorf("state = %v, want playing", m.State)
	}
}

func TestAccessors(t *testing.T) {
	p := four(t)
	if len(p.durations) != 4 {
		t.Errorf("segment count = %d, want 4", len(p.durations))
	}
	if p.ClipDuration() != sec(16) {
		t.Errorf("ClipDuration = %v, want 16s", p.ClipDuration())
	}
	if p.NextMissing() != 0 {
		t.Errorf("NextMissing = %d, want 0", p.NextMissing())
	}
	if err := p.OnSegmentComplete(0, 0); err != nil {
		t.Fatal(err)
	}
	if p.NextMissing() != 1 {
		t.Errorf("NextMissing = %d, want 1", p.NextMissing())
	}
	if got := p.Position(sec(10)); got != 0 {
		t.Errorf("idle Position = %v, want 0", got)
	}
}

// TestObserverSeesTransitions drives a full lifecycle — startup, a stall
// with a retroactive start, recovery, finish — and checks the observer
// reports every transition exactly once, in order, with model times.
func TestObserverSeesTransitions(t *testing.T) {
	p := four(t)
	var got []Transition
	p.SetObserver(func(tr Transition) { got = append(got, tr) })

	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(0, sec(1)); err != nil { // startup at 1s
		t.Fatal(err)
	}
	// Playhead hits the 4s frontier at t=5s; the stall is detected later,
	// at the t=7s completion, but must be reported as starting at 5s.
	if err := p.OnSegmentComplete(1, sec(7)); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(2, sec(8)); err != nil {
		t.Fatal(err)
	}
	if err := p.OnSegmentComplete(3, sec(9)); err != nil {
		t.Fatal(err)
	}
	p.Position(sec(60)) // drain to the end

	want := []Transition{
		{From: StateIdle, To: StateWaiting, At: 0},
		{From: StateWaiting, To: StatePlaying, At: sec(1)},
		{From: StatePlaying, To: StateStalled, At: sec(5)},
		{From: StateStalled, To: StatePlaying, At: sec(7)},
		// Played 4s at t=7s with 16s of clip: finish at 7+12 = 19s.
		{From: StatePlaying, To: StateFinished, At: sec(19)},
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d transitions %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestObserverIsInert: metrics with and without an observer attached are
// identical — the observer is a pure listener.
func TestObserverIsInert(t *testing.T) {
	run := func(observe bool) Metrics {
		p := four(t)
		if observe {
			p.SetObserver(func(Transition) {})
		}
		if err := p.Start(0); err != nil {
			t.Fatal(err)
		}
		for i, at := range []float64{1, 7, 8, 9} {
			if err := p.OnSegmentComplete(i, sec(at)); err != nil {
				t.Fatal(err)
			}
		}
		return p.Metrics(sec(60))
	}
	plain, observed := run(false), run(true)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observer changed metrics: %+v vs %+v", plain, observed)
	}
}
