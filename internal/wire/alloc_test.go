// Zero-allocation tests for the //lint:hotpath contract on the codec and
// the stream Reader and Writer. Excluded under -race because race
// instrumentation inserts allocations the production build does not have.

//go:build !race

package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

func pieceMsg() *Message {
	return &Message{
		Type:   MsgPiece,
		Index:  3,
		Offset: 16384,
		Data:   bytes.Repeat([]byte{0xAB}, DefaultBlockLen),
	}
}

// TestZeroAllocEncodeDecode pins Message.Encode and Message.Decode at
// zero heap allocations per frame.
func TestZeroAllocEncodeDecode(t *testing.T) {
	m := pieceMsg()
	n, err := m.EncodedLen()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	var dec Message
	allocs := testing.AllocsPerRun(200, func() {
		wrote, err := m.Encode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(buf[4:wrote]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Encode+Decode allocated %.1f times per frame, want 0", allocs)
	}
}

// segmentBytes is a default 2 s segment of the benchmark clip at 1 MiB/s:
// 129 blocks, the last one short.
const segmentBytes = 2<<20 + 1000

// TestZeroAllocReaderWriter pins the streaming path: after the warm-up
// frame grows the reusable buffers, WriteMsg, WriteRequests and ReadInto
// allocate nothing (AllocsPerRun's warm-up call absorbs the one-time
// growth).
func TestZeroAllocReaderWriter(t *testing.T) {
	m := pieceMsg()
	var stream bytes.Buffer
	wr := NewWriter(&stream)
	rd := NewReader(&stream)
	var dec Message
	allocs := testing.AllocsPerRun(200, func() {
		stream.Reset()
		if err := wr.WriteMsg(m); err != nil {
			t.Fatal(err)
		}
		if err := rd.ReadInto(&dec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteMsg+ReadInto allocated %.1f times per frame, want 0", allocs)
	}
	if !bytes.Equal(dec.Data, m.Data) {
		t.Error("round-trip corrupted piece data")
	}

	blocks := (segmentBytes + DefaultBlockLen - 1) / DefaultBlockLen
	allocs = testing.AllocsPerRun(50, func() {
		stream.Reset()
		if err := wr.WriteRequests(9, segmentBytes, DefaultBlockLen); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < blocks; b++ {
			if err := rd.ReadInto(&dec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("WriteRequests+ReadInto allocated %.1f times per segment, want 0", allocs)
	}
	if want := (Message{Type: MsgRequest, Index: 9, Offset: uint32(blocks-1) * DefaultBlockLen, Length: segmentBytes % DefaultBlockLen}); !reflect.DeepEqual(dec, want) {
		t.Errorf("last request = %+v, want %+v", dec, want)
	}
}

// BenchmarkHotpathWireRoundTrip is the -benchmem gate for the wire hot
// path: `make bench-alloc` fails if it reports nonzero allocs/op.
func BenchmarkHotpathWireRoundTrip(b *testing.B) {
	m := pieceMsg()
	var stream bytes.Buffer
	wr := NewWriter(&stream)
	rd := NewReader(&stream)
	var dec Message
	// Warm-up frame grows the reusable buffers outside the measurement.
	if err := wr.WriteMsg(m); err != nil {
		b.Fatal(err)
	}
	if err := rd.ReadInto(&dec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		if err := wr.WriteMsg(m); err != nil {
			b.Fatal(err)
		}
		if err := rd.ReadInto(&dec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathWireRequests is the gate for a segment's request burst:
// all of its REQUEST frames in one write, 0 allocs/op after warm-up.
func BenchmarkHotpathWireRequests(b *testing.B) {
	wr := NewWriter(io.Discard)
	// Warm-up burst grows the reusable buffer outside the measurement.
	if err := wr.WriteRequests(0, segmentBytes, DefaultBlockLen); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wr.WriteRequests(uint32(i), segmentBytes, DefaultBlockLen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathWireEncode isolates the encode half.
func BenchmarkHotpathWireEncode(b *testing.B) {
	m := pieceMsg()
	n, err := m.EncodedLen()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Encode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathWireDecode isolates the decode half.
func BenchmarkHotpathWireDecode(b *testing.B) {
	m := pieceMsg()
	n, err := m.EncodedLen()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, n)
	if _, err := m.Encode(buf); err != nil {
		b.Fatal(err)
	}
	var dec Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathWirePieceBatch is the gate for the serve path over a
// loopback TCP pair: one segment's PIECE frames queued, flushed in
// vectored writes of MaxQueued frames and behind a HAVE, and read back by
// a Reader that asks HasFrame before each frame — 0 allocs/op after
// warm-up on both ends.
func BenchmarkHotpathWirePieceBatch(b *testing.B) {
	client, server := tcpPair(b)
	blob := bytes.Repeat([]byte{0xCD}, segmentBytes)
	wr := NewWriter(client)
	serve := func(index uint32) {
		for off := 0; off < len(blob); off += DefaultBlockLen {
			if err := wr.QueuePiece(index, uint32(off), blob[off:min(off+DefaultBlockLen, len(blob))]); err != nil {
				b.Fatal(err)
			}
			if wr.Queued() == MaxQueued {
				if _, err := wr.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := wr.WriteMsg(&Message{Type: MsgHave, Index: index}); err != nil {
			b.Fatal(err)
		}
		if sent, err := wr.Flush(); err != nil || sent == 0 {
			b.Fatalf("Flush = %d, %v", sent, err)
		}
	}
	done := make(chan int, 1)
	go func() {
		rd := NewReader(server)
		var m Message
		held := 0
		for {
			if rd.HasFrame() {
				held++
			}
			if rd.ReadInto(&m) != nil {
				done <- held // EOF: the writer closed
				return
			}
		}
	}()
	serve(0) // the warm-up segment grows the reusable buffers
	b.SetBytes(segmentBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(uint32(i))
	}
	client.Close()
	b.ReportMetric(float64(<-done)/float64(b.N+1), "held-frames/op")
}
