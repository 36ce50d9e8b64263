package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, // bucket 0: v <= 1
		{2, 1},         // (1, 2]
		{3, 2}, {4, 2}, // (2, 4]
		{5, 3}, {8, 3}, // (4, 8]
		{9, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{1 << 47, 47},                // last finite bucket
		{1<<47 + 1, HistBuckets},     // first overflow value
		{math.MaxInt64, HistBuckets}, // deep overflow
	}
	for _, c := range cases {
		if got := histBucketIndex(c.v); got != c.want {
			t.Errorf("histBucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite bucket's upper bound must land in that bucket and
	// upper+1 in the next.
	for i := 0; i < HistBuckets; i++ {
		up := HistBucketUpper(i)
		if got := histBucketIndex(up); got != i {
			t.Errorf("upper bound %d landed in bucket %d, want %d", up, got, i)
		}
		wantNext := i + 1
		if wantNext > HistBuckets {
			wantNext = HistBuckets
		}
		if got := histBucketIndex(up + 1); got != wantNext {
			t.Errorf("upper bound %d+1 landed in bucket %d, want %d", up, got, wantNext)
		}
	}
}

func TestHistogramCountSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bytes")
	for _, v := range []int64{1, 2, 3, 100, 4096} {
		h.Observe(v)
	}
	if hs := r.Snap().Hists[0]; hs.Count != 5 || hs.Sum != 4202 {
		t.Fatalf("Count, Sum = %d, %d, want 5, 4202", hs.Count, hs.Sum)
	}
	// Same name returns the same underlying histogram.
	h2 := r.Histogram("bytes")
	h2.Observe(10)
	if n := r.Snap().Hists[0].Count; n != 6 {
		t.Fatalf("shared state: Count = %d, want 6", n)
	}
}

func TestSecondsHistogramScale(t *testing.T) {
	r := NewRegistry()
	h := r.SecondsHistogram("lat_seconds")
	h.ObserveDuration(1500 * time.Millisecond) // 1.5e6 µs
	snap := r.Snap()
	if len(snap.Hists) != 1 {
		t.Fatalf("Hists = %d, want 1", len(snap.Hists))
	}
	hs := snap.Hists[0]
	if hs.Sum != 1_500_000 {
		t.Fatalf("raw Sum = %d, want 1500000", hs.Sum)
	}
	if got := hs.SumScaled(); got != 1.5 {
		t.Fatalf("SumScaled = %v, want 1.5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q")
	// 100 observations of value 3 — all in bucket (2,4].
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	hs := r.Snap().Hists[0]
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := hs.Quantile(q)
		if got <= 2 || got > 4 {
			t.Errorf("Quantile(%v) = %v, want within (2, 4]", q, got)
		}
	}
	// Median of 50×1 and 50×1024 must land at or below the low bucket for
	// q=0.5 and in the high bucket for q=0.95.
	r2 := NewRegistry()
	h2 := r2.Histogram("q2")
	for i := 0; i < 50; i++ {
		h2.Observe(1)
		h2.Observe(1024)
	}
	hs2 := r2.Snap().Hists[0]
	if got := hs2.Quantile(0.5); got > 1 {
		t.Errorf("bimodal Quantile(0.5) = %v, want <= 1", got)
	}
	if got := hs2.Quantile(0.95); got <= 512 || got > 1024 {
		t.Errorf("bimodal Quantile(0.95) = %v, want within (512, 1024]", got)
	}
	// Empty histogram.
	var empty HistStat
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	// Overflow-only histogram reports the last finite bound.
	r3 := NewRegistry()
	r3.Histogram("q3").Observe(math.MaxInt64)
	hs3 := r3.Snap().Hists[0]
	if got, want := hs3.Quantile(0.5), float64(HistBucketUpper(HistBuckets-1)); got != want {
		t.Errorf("overflow Quantile = %v, want %v", got, want)
	}
}

func TestHistogramQuantileDeterministic(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 7 % 4096)
	}
	hs := r.Snap().Hists[0]
	first := hs.Quantile(0.95)
	for i := 0; i < 10; i++ {
		if got := hs.Quantile(0.95); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("Quantile not bit-stable: %v vs %v", got, first)
		}
	}
}

func TestHistogramConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := r.Histogram("conc") // concurrent lookup too
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	hs := r.Snap().Hists[0]
	if hs.Count != goroutines*perG {
		t.Fatalf("Count = %d, want %d", hs.Count, goroutines*perG)
	}
	want := int64(goroutines*perG) * int64(goroutines*perG-1) / 2 // sum 0..N-1
	if hs.Sum != want {
		t.Fatalf("Sum = %d, want %d (atomic adds must not lose updates)", hs.Sum, want)
	}
	var bucketTotal int64
	for _, c := range hs.Counts {
		bucketTotal += c
	}
	if bucketTotal != hs.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, hs.Count)
	}
}

func TestNilRegistryHistogramIsNoOp(t *testing.T) {
	var r *Registry
	h := r.Histogram("x")
	h.Observe(5)
	h.ObserveDuration(time.Second)
	if h.h != nil {
		t.Fatal("nil-registry histogram holds storage")
	}
	sh := r.SecondsHistogram("y")
	sh.ObserveDuration(time.Second)
	if sh.h != nil {
		t.Fatal("nil-registry seconds histogram holds storage")
	}
	r.SetHelp("x", "help")
	snap := r.Snap()
	if len(snap.Stats) != 0 || len(snap.Hists) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteText: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteProm: err=%v len=%d", err, buf.Len())
	}
}

// TestSnapshotOrderingContract pins the satellite-1 contract: Snapshot
// and WriteText order stats by name regardless of registration order,
// and repeated renders are byte-identical.
func TestSnapshotOrderingContract(t *testing.T) {
	build := func(order []int) *Registry {
		r := NewRegistry()
		names := []string{"zeta", "alpha", "mid"}
		for _, i := range order {
			switch names[i] {
			case "zeta":
				r.Counter("zeta").Add(1)
			case "alpha":
				r.Gauge("alpha").Set(2)
			case "mid":
				r.Histogram("mid").Observe(3)
			}
		}
		return r
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 1, 0})
	render := func(r *Registry) (string, string) {
		var txt, prom bytes.Buffer
		if err := r.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		return txt.String(), prom.String()
	}
	txtA, promA := render(a)
	txtB, promB := render(b)
	if txtA != txtB {
		t.Fatalf("WriteText depends on registration order:\n%q\nvs\n%q", txtA, txtB)
	}
	if promA != promB {
		t.Fatalf("WriteProm depends on registration order:\n%q\nvs\n%q", promA, promB)
	}
	stats := a.Snap().Stats
	if len(stats) != 2 || stats[0].Name != "alpha" || stats[1].Name != "zeta" {
		t.Fatalf("Snapshot not name-sorted: %+v", stats)
	}
	// Repeated renders of the same registry are byte-identical.
	for i := 0; i < 5; i++ {
		txt, prom := render(a)
		if txt != txtA || prom != promA {
			t.Fatalf("render %d not byte-stable", i)
		}
	}
}

func TestWritePromExpositionValid(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("p2p_segments_done_total", "Completed segment downloads.")
	r.Counter("p2p_segments_done_total").Add(7)
	r.Gauge("p2p_active_downloads").Set(3)
	r.SetHelp("p2p_stall_seconds", "Stall durations by cause.")
	hs := r.SecondsHistogram(`p2p_stall_seconds{cause="slow_flow"}`)
	hs.ObserveDuration(250 * time.Millisecond)
	hs.ObserveDuration(4 * time.Second)
	r.SecondsHistogram(`p2p_stall_seconds{cause="empty_pool"}`).ObserveDuration(time.Second)
	r.Histogram(`p2p_segment_bytes{scheme="gop"}`).Observe(100_000)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	m, err := ParsePromText(out)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
	if m.Types["p2p_segments_done_total"] != "counter" {
		t.Errorf("counter family type = %q", m.Types["p2p_segments_done_total"])
	}
	if m.Types["p2p_active_downloads"] != "gauge" {
		t.Errorf("gauge family type = %q", m.Types["p2p_active_downloads"])
	}
	if m.Types["p2p_stall_seconds"] != "histogram" {
		t.Errorf("histogram family type = %q", m.Types["p2p_stall_seconds"])
	}
	if v, ok := m.Value("p2p_segments_done_total"); !ok || v != 7 {
		t.Errorf("counter sample = %v, %v", v, ok)
	}
	if v, ok := m.Value(`p2p_stall_seconds_count{cause="slow_flow"}`); !ok || v != 2 {
		t.Errorf("histogram count sample = %v, %v", v, ok)
	}
	if v, ok := m.Value(`p2p_stall_seconds_sum{cause="slow_flow"}`); !ok || v != 4.25 {
		t.Errorf("histogram sum sample = %v, %v (wanted exact 4.25)", v, ok)
	}
	if v, ok := m.Value(`p2p_stall_seconds_bucket{cause="slow_flow",le="+Inf"}`); !ok || v != 2 {
		t.Errorf("+Inf bucket = %v, %v", v, ok)
	}
	// Cumulative bucket counts must be monotone non-decreasing per series.
	var prev float64
	lines := strings.Split(out, "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, `p2p_stall_seconds_bucket{cause="slow_flow"`) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %q after %g", line, prev)
		}
		prev = v
	}
	// TYPE must appear exactly once per family.
	if n := strings.Count(out, "# TYPE p2p_stall_seconds "); n != 1 {
		t.Errorf("TYPE for p2p_stall_seconds appears %d times", n)
	}
	if !strings.Contains(out, "# HELP p2p_stall_seconds Stall durations by cause.") {
		t.Error("HELP line missing")
	}
}

// TestTextAndPromAgree is the registry half of satellite 6: both
// renderings derive from one Snap() and must report the same numbers.
func TestTextAndPromAgree(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(41)
	r.Gauge("b").Set(-3)
	h := r.SecondsHistogram("c_seconds")
	h.ObserveDuration(2 * time.Second)
	h.ObserveDuration(500 * time.Millisecond)

	var prom bytes.Buffer
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	m, err := ParsePromText(prom.String())
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snap()
	for _, s := range snap.Stats {
		if v, ok := m.Value(s.Name); !ok || v != float64(s.Value) {
			t.Errorf("scalar %s: prom=%v,%v text=%d", s.Name, v, ok, s.Value)
		}
	}
	for _, hst := range snap.Hists {
		base, _ := splitSeriesName(hst.Name)
		if v, ok := m.Value(base + "_count"); !ok || v != float64(hst.Count) {
			t.Errorf("hist %s count: prom=%v,%v snap=%d", hst.Name, v, ok, hst.Count)
		}
		if v, ok := m.Value(base + "_sum"); !ok || v != hst.SumScaled() {
			t.Errorf("hist %s sum: prom=%v,%v snap=%v", hst.Name, v, ok, hst.SumScaled())
		}
	}
	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "count=2 sum=2.5") {
		t.Errorf("text dump missing histogram summary: %q", txt.String())
	}
}

func TestParsePromTextRejectsMalformed(t *testing.T) {
	bad := []string{
		"name_only\n",       // no value
		"x{unclosed 1\n",    // broken label block
		`x{l=v} 1` + "\n",   // unquoted label value
		"# TYPE x wibble\n", // unknown type
		"x 1\nx 2\n",        // duplicate series
		"# TYPE x counter\n# TYPE x gauge\nx 1\n", // family redeclared
	}
	for _, in := range bad {
		if _, err := ParsePromText(in); err == nil {
			t.Errorf("ParsePromText(%q) accepted malformed input", in)
		}
	}
	// Trailing timestamps and blank lines are tolerated.
	m, err := ParsePromText("\nx 1 1234567\n\n")
	if err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if v, ok := m.Value("x"); !ok || v != 1 {
		t.Fatalf("sample = %v, %v", v, ok)
	}
}

func TestReadJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{At: 1500 * time.Microsecond, Peer: 2, Seg: 7, Cat: CatPlayer, Name: EvStallBegin},
		{At: 2 * time.Second, Peer: -1, Seg: -1, Cat: CatSim, Name: EvSimSummary,
			Args: []Arg{Int64("n", 42), Str("cause", CauseSlowFlow), Float64("rate", 1.25)}},
		{At: 0, Peer: 0, Seg: -1, Cat: CatFault, Name: EvPeerCrash},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i, ev := range got {
		want := events[i]
		if ev.At != want.At || ev.Peer != want.Peer || ev.Seg != want.Seg ||
			ev.Cat != want.Cat || ev.Name != want.Name {
			t.Errorf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	// Args survive with values intact (order is re-sorted by key).
	ev := got[1]
	if v := ev.ArgInt64("n", -1); v != 42 {
		t.Errorf("n = %d", v)
	}
	if v := ev.ArgStr("cause", ""); v != CauseSlowFlow {
		t.Errorf("cause = %q", v)
	}
	if v := ev.ArgFloat64("rate", 0); v != 1.25 {
		t.Errorf("rate = %v", v)
	}
	// ArgFloat64 accepts int-kinded args (integral floats round-trip as ints).
	if v := ev.ArgFloat64("n", 0); v != 42 {
		t.Errorf("ArgFloat64 on int arg = %v", v)
	}
	// Malformed input reports the line number.
	if _, err := ReadJSONL(strings.NewReader("{}\nnot json\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line error = %v", err)
	}
}

// histCount is the observation count of the histogram named name in
// snap, 0 if it is absent.
func histCount(snap RegistrySnapshot, name string) int64 {
	for _, h := range snap.Hists {
		if h.Name == name {
			return h.Count
		}
	}
	return 0
}
