package pprofile

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// --- tiny protobuf writer, just enough to fabricate a profile ---

func putVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func putTag(b []byte, field, wire int) []byte {
	return putVarint(b, uint64(field)<<3|uint64(wire))
}

func putMsg(b []byte, field int, msg []byte) []byte {
	b = putTag(b, field, 2)
	b = putVarint(b, uint64(len(msg)))
	return append(b, msg...)
}

func putInt(b []byte, field int, v uint64) []byte {
	b = putTag(b, field, 0)
	return putVarint(b, v)
}

// synthProfile builds a two-sample CPU profile:
//
//	strings: 1=samples 2=count 3=cpu 4=nanoseconds 5=main.hot 6=main.caller
//	sample 1: stack [hot <- caller], values (3 samples, 300ns)  [packed]
//	sample 2: stack [caller],       values (1 sample, 100ns)   [unpacked]
func synthProfile() []byte {
	var p []byte
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "main.hot", "main.caller"} {
		p = putMsg(p, 6, []byte(s))
	}
	var vt []byte
	vt = putInt(nil, 1, 1)
	vt = putInt(vt, 2, 2)
	p = putMsg(p, 1, vt) // samples/count
	vt = putInt(nil, 1, 3)
	vt = putInt(vt, 2, 4)
	p = putMsg(p, 1, vt) // cpu/nanoseconds

	for id, name := range map[uint64]uint64{1: 5, 2: 6} {
		var fn []byte
		fn = putInt(nil, 1, id)
		fn = putInt(fn, 2, name)
		p = putMsg(p, 5, fn)
	}
	for loc, fid := range map[uint64]uint64{10: 1, 20: 2} {
		line := putInt(nil, 1, fid)
		var lo []byte
		lo = putInt(nil, 1, loc)
		lo = putMsg(lo, 4, line)
		p = putMsg(p, 4, lo)
	}

	var s1 []byte
	locs := putVarint(putVarint(nil, 10), 20)
	s1 = putMsg(s1, 1, locs) // packed location_id
	vals := putVarint(putVarint(nil, 3), 300)
	s1 = putMsg(s1, 2, vals) // packed value
	p = putMsg(p, 2, s1)

	var s2 []byte
	s2 = putInt(s2, 1, 20) // unpacked location_id
	s2 = putInt(s2, 2, 1)  // unpacked values
	s2 = putInt(s2, 2, 100)
	p = putMsg(p, 2, s2)
	return p
}

func TestParseSynthetic(t *testing.T) {
	p, err := Parse(synthProfile())
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleType != "cpu" || p.SampleUnit != "nanoseconds" {
		t.Fatalf("value dimension = %s/%s, want cpu/nanoseconds", p.SampleType, p.SampleUnit)
	}
	if p.Samples != 2 || p.Total != 400 {
		t.Fatalf("samples=%d total=%d, want 2/400", p.Samples, p.Total)
	}
	want := []FuncStat{
		{Name: "main.hot", Flat: 300, Cum: 300},
		{Name: "main.caller", Flat: 100, Cum: 400},
	}
	if len(p.Functions) != len(want) {
		t.Fatalf("functions = %+v, want %+v", p.Functions, want)
	}
	for i, w := range want {
		if p.Functions[i] != w {
			t.Errorf("functions[%d] = %+v, want %+v", i, p.Functions[i], w)
		}
	}
}

func TestParseTruncated(t *testing.T) {
	full := synthProfile()
	if _, err := Parse(full[:len(full)-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
	if _, err := Parse([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Fatal("bogus gzip parsed without error")
	}
}

// TestParseLiveProfile round-trips a real runtime/pprof capture: the
// exact format the bench harness embeds in BENCH artifacts.
func TestParseLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin := time.Now()
	x := 0
	for time.Since(spin) < 400*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x

	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleType != "cpu" || p.SampleUnit != "nanoseconds" {
		t.Fatalf("value dimension = %s/%s, want cpu/nanoseconds", p.SampleType, p.SampleUnit)
	}
	if p.Samples == 0 {
		t.Skip("profiler collected no samples in this environment")
	}
	if p.Total <= 0 || len(p.Functions) == 0 {
		t.Fatalf("degenerate live profile: total=%d functions=%d", p.Total, len(p.Functions))
	}
}
