package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func testEvents() []Event {
	return []Event{
		{At: 100 * time.Millisecond, Peer: 1, Seg: -1, Cat: CatPlayer, Name: EvStartup,
			Args: []Arg{Int64("startup_us", 100_000)}},
		{At: 200 * time.Millisecond, Peer: 1, Seg: 3, Cat: CatFlow, Name: EvFlowActivate,
			Args: []Arg{Int64("flow", 7), Float64("rate", 131072.5)}},
		{At: 500 * time.Millisecond, Peer: 1, Seg: -1, Cat: CatPlayer, Name: EvStallBegin},
		{At: 500 * time.Millisecond, Peer: 1, Seg: -1, Cat: CatPlayer, Name: EvStallCause,
			Args: []Arg{Str("cause", CauseFrozenFlow), Int64("inflight", 2)}},
		{At: 900 * time.Millisecond, Peer: 1, Seg: 3, Cat: CatFlow, Name: EvFlowComplete,
			Args: []Arg{Int64("flow", 7)}},
		{At: time.Second, Peer: 1, Seg: -1, Cat: CatPlayer, Name: EvStallEnd},
		{At: 2 * time.Second, Peer: 1, Seg: -1, Cat: CatPlayer, Name: EvFinished},
		{At: 2 * time.Second, Peer: -1, Seg: -1, Cat: CatSim, Name: EvSimSummary,
			Args: []Arg{Int64("events_fired", 1234)}},
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{Name: "x"}) // must not panic
	if got := New(nil); got != nil {
		t.Fatalf("New(nil) = %v, want nil", got)
	}
}

func TestBufferRecordsInOrder(t *testing.T) {
	buf := NewBuffer()
	tr := New(buf)
	if !tr.Enabled() {
		t.Fatal("tracer with sink not enabled")
	}
	for _, ev := range testEvents() {
		tr.Emit(ev)
	}
	got := buf.Events()
	if len(got) != len(testEvents()) {
		t.Fatalf("recorded %d events, want %d", len(got), len(testEvents()))
	}
	if got[0].Name != EvStartup || got[len(got)-1].Name != EvSimSummary {
		t.Fatalf("order mangled: first %q last %q", got[0].Name, got[len(got)-1].Name)
	}
	// The returned slice is a copy.
	got[0].Name = "mutated"
	if buf.Events()[0].Name != EvStartup {
		t.Fatal("Events() aliases the internal slice")
	}
}

func TestBufferConcurrentEmit(t *testing.T) {
	buf := NewBuffer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				buf.Emit(Event{Peer: -1, Seg: -1, Name: "n"})
			}
		}()
	}
	wg.Wait()
	if n := len(buf.Events()); n != 800 {
		t.Fatalf("%d events, want 800", n)
	}
}

func TestJSONLRoundTrips(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJSONL(&b, testEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(testEvents()) {
		t.Fatalf("%d lines, want %d", len(lines), len(testEvents()))
	}
	for i, line := range lines {
		var rec struct {
			TUS  int64          `json:"t_us"`
			Cat  string         `json:"cat"`
			Name string         `json:"name"`
			Peer *int           `json:"peer"`
			Seg  *int           `json:"seg"`
			Args map[string]any `json:"args"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		want := testEvents()[i]
		if rec.TUS != want.At.Microseconds() || rec.Name != want.Name || rec.Cat != want.Cat {
			t.Fatalf("line %d = %+v, want %v", i, rec, want)
		}
		if want.Peer >= 0 && (rec.Peer == nil || *rec.Peer != want.Peer) {
			t.Fatalf("line %d peer = %v, want %d", i, rec.Peer, want.Peer)
		}
		if want.Peer < 0 && rec.Peer != nil {
			t.Fatalf("line %d has peer %d, want omitted", i, *rec.Peer)
		}
		if len(want.Args) != len(rec.Args) {
			t.Fatalf("line %d has %d args, want %d", i, len(rec.Args), len(want.Args))
		}
	}
}

func TestJSONLWriterStreams(t *testing.T) {
	var b bytes.Buffer
	jw := NewJSONLWriter(&b)
	for _, ev := range testEvents() {
		jw.Emit(ev)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := WriteJSONL(&whole, testEvents()); err != nil {
		t.Fatal(err)
	}
	if b.String() != whole.String() {
		t.Fatal("streaming writer output differs from WriteJSONL")
	}
}

func TestBuildTimeline(t *testing.T) {
	tls := BuildTimeline(testEvents())
	if len(tls) != 1 {
		t.Fatalf("%d timelines, want 1", len(tls))
	}
	tl := tls[0]
	if tl.Peer != 1 || !tl.Finished || tl.StartupUS != 100_000 {
		t.Fatalf("timeline = %+v", tl)
	}
	if len(tl.Stalls) != 1 {
		t.Fatalf("%d stalls, want 1", len(tl.Stalls))
	}
	s := tl.Stalls[0]
	if s.StartUS != 500_000 || s.EndUS != 1_000_000 || s.Cause != CauseFrozenFlow {
		t.Fatalf("stall = %+v", s)
	}
	if got := Unattributed(tls); len(got) != 0 {
		t.Fatalf("unattributed = %v, want none", got)
	}
}

func TestTimelineFlagsProblems(t *testing.T) {
	events := []Event{
		{At: time.Second, Peer: 2, Seg: -1, Cat: CatPlayer, Name: EvStallBegin},
	}
	tls := BuildTimeline(events)
	if got := Unattributed(tls); len(got) != 1 {
		t.Fatalf("unattributed = %v, want 1 entry", got)
	}
	if end := tls[0].Stalls[0].EndUS; end != -1 {
		t.Fatalf("open stall EndUS = %d, want -1", end)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("blocks_rx")
	c.Inc()
	c.Add(4)
	// Same name resolves to the same counter.
	r.Counter("blocks_rx").Inc()
	g := r.Gauge("active")
	g.Set(3)
	g.Set(2)
	snap := r.Snap().Stats
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v, want 2 stats", snap)
	}
	// Ordering contract: sorted by name, whatever the kind.
	if snap[0] != (Stat{Name: "active", Kind: "gauge", Value: 2}) {
		t.Fatalf("first stat = %+v", snap[0])
	}
	if snap[1] != (Stat{Name: "blocks_rx", Kind: "counter", Value: 6}) {
		t.Fatalf("second stat = %+v", snap[1])
	}
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "blocks_rx") {
		t.Fatalf("text output missing counter: %q", b.String())
	}
}

func TestNilRegistryHandsOutNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	g := r.Gauge("y")
	g.Set(9) // a gauge has no reader but the snapshot: Set must not panic
	if c.v != nil {
		t.Fatal("nil-registry counter holds storage")
	}
	if r.Snap().Stats != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}
