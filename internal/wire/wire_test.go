package wire

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: MsgChoke},
		{Type: MsgUnchoke},
		{Type: MsgInterested},
		{Type: MsgNotInterested},
		{Type: MsgKeepAlive},
		{Type: MsgHave, Index: 42},
		{Type: MsgRequest, Index: 3, Offset: 16384, Length: 16384},
		{Type: MsgCancel, Index: 3, Offset: 16384, Length: 16384},
		{Type: MsgPiece, Index: 7, Offset: 32768, Data: bytes.Repeat([]byte{0xAB}, 16384)},
		{Type: MsgBitfield, Bitfield: []byte{0xF0, 0x01}},
	}
	var buf bytes.Buffer
	wr, rd := NewWriter(&buf), NewReader(&buf)
	for _, m := range msgs {
		if err := wr.WriteMsg(m); err != nil {
			t.Fatalf("WriteMsg(type %d): %v", m.Type, err)
		}
	}
	for _, want := range msgs {
		var got Message
		if err := rd.ReadInto(&got); err != nil {
			t.Fatalf("ReadInto(type %d): %v", want.Type, err)
		}
		if got.Type != want.Type || got.Index != want.Index || got.Offset != want.Offset {
			t.Errorf("round-trip mismatch: got %+v want %+v", got, want)
		}
		if want.Type == MsgRequest || want.Type == MsgCancel {
			if got.Length != want.Length {
				t.Errorf("type %d length %d, want %d", want.Type, got.Length, want.Length)
			}
		}
		if !bytes.Equal(got.Data, want.Data) || !bytes.Equal(got.Bitfield, want.Bitfield) {
			t.Errorf("type %d payload mismatch", want.Type)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("%d trailing bytes after decoding all messages", buf.Len())
	}
}

func TestWriteRejectsBadMessages(t *testing.T) {
	bad := []*Message{
		{Type: MessageType(99)},
		{Type: MsgPiece}, // empty data
		{Type: MsgPiece, Data: make([]byte, MaxBlockLen+1)}, // oversized
		{Type: MsgBitfield}, // empty bitfield
		{Type: MsgBitfield, Bitfield: make([]byte, MaxBitfieldLen+1)}, // oversized
	}
	for _, m := range bad {
		if err := NewWriter(io.Discard).WriteMsg(m); err == nil {
			t.Errorf("WriteMsg(%+v): want error", m)
		}
	}
}

func TestReadRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"zero length":        {0, 0, 0, 0},
		"huge length":        {0xFF, 0xFF, 0xFF, 0xFF},
		"truncated body":     {0, 0, 0, 5, byte(MsgHave), 1},
		"unknown type":       {0, 0, 0, 1, 99},
		"have short payload": {0, 0, 0, 3, byte(MsgHave), 0, 0},
		"choke with payload": {0, 0, 0, 2, byte(MsgChoke), 1},
		"request bad length": {0, 0, 0, 13, byte(MsgRequest), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"piece no data":      {0, 0, 0, 9, byte(MsgPiece), 0, 0, 0, 1, 0, 0, 0, 0},
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if err := NewReader(bytes.NewReader(in)).ReadInto(&Message{}); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	id, err := NewPeerID()
	if err != nil {
		t.Fatal(err)
	}
	var ih InfoHash
	for i := range ih {
		ih[i] = byte(i)
	}
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, Handshake{InfoHash: ih, PeerID: id}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHandshake(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.InfoHash != ih || got.PeerID != id {
		t.Error("handshake round-trip mismatch")
	}
}

func TestHandshakeRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, Handshake{}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[3] ^= 0xFF
	if _, err := ReadHandshake(bytes.NewReader(b)); err == nil {
		t.Error("want error for corrupted magic")
	}
	if _, err := ReadHandshake(bytes.NewReader(nil)); err == nil {
		t.Error("want error for empty input")
	}
}

func TestInfoHashParse(t *testing.T) {
	var ih InfoHash
	ih[0], ih[31] = 0xAB, 0xCD
	got, err := ParseInfoHash(ih.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != ih {
		t.Error("ParseInfoHash round-trip mismatch")
	}
	for _, bad := range []string{"", "zz", "abcd"} {
		if _, err := ParseInfoHash(bad); err == nil {
			t.Errorf("ParseInfoHash(%q): want error", bad)
		}
	}
}

func TestBitfieldRoundTrip(t *testing.T) {
	have := []bool{true, false, true, true, false, false, false, true, true}
	bf := EncodeBitfield(have)
	got, err := DecodeBitfield(bf, len(have))
	if err != nil {
		t.Fatal(err)
	}
	for i := range have {
		if got[i] != have[i] {
			t.Errorf("bit %d: got %v want %v", i, got[i], have[i])
		}
	}
}

func TestBitfieldRejects(t *testing.T) {
	if _, err := DecodeBitfield([]byte{0xFF}, 4); err == nil {
		t.Error("spare bits set: want error")
	}
	if _, err := DecodeBitfield([]byte{0, 0}, 4); err == nil {
		t.Error("wrong length: want error")
	}
	if _, err := DecodeBitfield(nil, -1); err == nil {
		t.Error("negative count: want error")
	}
}

func TestBlockCount(t *testing.T) {
	tests := []struct {
		size  int64
		block int
		want  int
	}{
		{0, 16384, 0},
		{1, 16384, 1},
		{16384, 16384, 1},
		{16385, 16384, 2},
		{100, 0, 0},
		{-5, 16384, 0},
	}
	for _, tt := range tests {
		if got := BlockCount(tt.size, tt.block); got != tt.want {
			t.Errorf("BlockCount(%d, %d) = %d, want %d", tt.size, tt.block, got, tt.want)
		}
	}
}

// Property: any bitfield round-trips for any size.
func TestQuickBitfieldRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 4096)
		r := rand.New(rand.NewSource(seed))
		have := make([]bool, n)
		for i := range have {
			have[i] = r.Intn(2) == 1
		}
		got, err := DecodeBitfield(EncodeBitfield(have), n)
		if err != nil {
			return false
		}
		for i := range have {
			if got[i] != have[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: WriteMsg/ReadInto round-trips arbitrary piece payloads.
func TestQuickPieceRoundTrip(t *testing.T) {
	f := func(index, offset uint32, data []byte) bool {
		if len(data) == 0 || len(data) > MaxBlockLen {
			return true // WriteMsg rejects these by design
		}
		var buf bytes.Buffer
		m := &Message{Type: MsgPiece, Index: index, Offset: offset, Data: data}
		if err := NewWriter(&buf).WriteMsg(m); err != nil {
			return false
		}
		var got Message
		if err := NewReader(&buf).ReadInto(&got); err != nil {
			return false
		}
		return got.Index == index && got.Offset == offset && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWriteRequests checks the batched REQUEST frames are the ones
// WriteMsg writes one at a time, in order, and that a bad block length is
// rejected.
func TestWriteRequests(t *testing.T) {
	for _, size := range []int{1, DefaultBlockLen, 3*DefaultBlockLen + 5} {
		var batched, single bytes.Buffer
		if err := NewWriter(&batched).WriteRequests(4, size, DefaultBlockLen); err != nil {
			t.Fatal(err)
		}
		wr := NewWriter(&single)
		for off := 0; off < size; off += DefaultBlockLen {
			m := &Message{Type: MsgRequest, Index: 4, Offset: uint32(off), Length: uint32(min(DefaultBlockLen, size-off))}
			if err := wr.WriteMsg(m); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(batched.Bytes(), single.Bytes()) {
			t.Errorf("size %d: batched requests differ from one-at-a-time", size)
		}
	}
	for _, blockLen := range []int{0, MaxBlockLen + 1} {
		if err := NewWriter(io.Discard).WriteRequests(0, 100, blockLen); err != ErrRequestLength {
			t.Errorf("block length %d: err %v, want ErrRequestLength", blockLen, err)
		}
	}
}

// batchStep is one write of a serve path's frame mix: a PIECE to queue, a
// REQUEST burst of size bytes of segment m.Index, or m itself, then an
// explicit Flush if flush is set.
type batchStep struct {
	m     Message
	queue bool
	burst int
	flush bool
}

// batchBlock is the mix's PIECE payload size: small, so one blob yields
// more frames in a row than a queue holds.
const batchBlock = 1000

// batchScript mixes PIECE frames, whose payloads are views of blob, with
// HAVE and CHOKE frames and REQUEST bursts, each kind written both on an
// empty and on a non-empty queue.
func batchScript(blob []byte) []batchStep {
	var steps []batchStep
	off := 0
	queue := func(k int) {
		for ; k > 0 && off < len(blob); k-- {
			n := min(batchBlock, len(blob)-off)
			steps = append(steps, batchStep{m: Message{Type: MsgPiece, Index: 2, Offset: uint32(off), Data: blob[off : off+n]}, queue: true})
			off += n
		}
	}
	steps = append(steps, batchStep{m: Message{Type: MsgHave, Index: 1}})
	queue(MaxQueued + 3)
	steps = append(steps, batchStep{m: Message{Type: MsgChoke}})
	steps = append(steps, batchStep{m: Message{Index: 5}, burst: 3*DefaultBlockLen + 7})
	queue(4)
	steps = append(steps, batchStep{m: Message{Index: 6}, burst: 2 * DefaultBlockLen})
	queue(2)
	steps = append(steps, batchStep{m: Message{Type: MsgHave, Index: 9}, flush: true})
	queue(MaxQueued)
	steps = append(steps, batchStep{m: Message{Type: MsgUnchoke}, flush: true})
	queue(len(blob))
	return steps
}

// frames expands the script into the messages a reader must decode.
func (s batchStep) frames() []Message {
	if s.burst == 0 {
		return []Message{s.m}
	}
	var out []Message
	for off := 0; off < s.burst; off += DefaultBlockLen {
		out = append(out, Message{Type: MsgRequest, Index: s.m.Index, Offset: uint32(off), Length: uint32(min(DefaultBlockLen, s.burst-off))})
	}
	return out
}

// playBatched writes the script through the queue as the peer serve path
// does — flushing a full queue at once — and returns the PIECE payload
// bytes the flushes reported.
func playBatched(t *testing.T, wr *Writer, steps []batchStep) int {
	t.Helper()
	sent := 0
	flush := func() {
		n, err := wr.Flush()
		if err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	for _, s := range steps {
		var err error
		switch {
		case s.queue:
			err = wr.QueuePiece(s.m.Index, s.m.Offset, s.m.Data)
			if err == nil && wr.Queued() == MaxQueued {
				flush()
			}
		case s.burst > 0:
			err = wr.WriteRequests(s.m.Index, s.burst, DefaultBlockLen)
		default:
			err = wr.WriteMsg(&s.m)
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.flush {
			flush()
		}
	}
	flush()
	return sent
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(tb testing.TB) (client, server net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		tb.Fatal(err)
	}
	if server, err = ln.Accept(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestQueuedPiecesMatchWriteMsg pins the PIECE queue to WriteMsg's bytes:
// the serve path's frame mix, queued and flushed over a bytes.Buffer and
// over a loopback TCP pair (the writev path), is byte for byte what
// WriteMsg writes for the same messages, reads back unchanged one byte at
// a time, and every payload byte is reported by exactly one Flush.
func TestQueuedPiecesMatchWriteMsg(t *testing.T) {
	blob := make([]byte, (2*MaxQueued+9)*batchBlock+123)
	rand.New(rand.NewSource(1)).Read(blob)
	steps := batchScript(blob)

	var want bytes.Buffer
	var frames []Message
	ref := NewWriter(&want)
	for _, s := range steps {
		for _, m := range s.frames() {
			if err := ref.WriteMsg(&m); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, m)
		}
	}

	var viaBuffer bytes.Buffer
	if sent := playBatched(t, NewWriter(&viaBuffer), steps); sent != len(blob) {
		t.Errorf("bytes.Buffer: flushes reported %d payload bytes, want %d", sent, len(blob))
	}

	client, server := tcpPair(t)
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(server) // a short read shows as a mismatch below
		got <- b
	}()
	if sent := playBatched(t, NewWriter(client), steps); sent != len(blob) {
		t.Errorf("TCP: flushes reported %d payload bytes, want %d", sent, len(blob))
	}
	client.Close()
	viaTCP := <-got

	for name, b := range map[string][]byte{"bytes.Buffer": viaBuffer.Bytes(), "TCP": viaTCP} {
		if !bytes.Equal(b, want.Bytes()) {
			t.Errorf("%s: queued frames (%d bytes) differ from WriteMsg's (%d bytes)", name, len(b), want.Len())
			continue
		}
		rd := NewReader(iotest.OneByteReader(bytes.NewReader(b)))
		for i, w := range frames {
			var m Message
			if err := rd.ReadInto(&m); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(m, w) {
				t.Fatalf("%s: frame %d = %+v, want %+v", name, i, m, w)
			}
		}
		if err := rd.ReadInto(&Message{}); err != io.EOF {
			t.Errorf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

func TestQueuePieceRejects(t *testing.T) {
	wr := NewWriter(io.Discard)
	for _, data := range [][]byte{nil, make([]byte, MaxBlockLen+1)} {
		if err := wr.QueuePiece(0, 0, data); err != ErrPieceSize {
			t.Errorf("%d-byte payload: err %v, want ErrPieceSize", len(data), err)
		}
	}
	data := []byte{1}
	for i := 0; i < MaxQueued; i++ {
		if err := wr.QueuePiece(0, uint32(i), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.QueuePiece(0, MaxQueued, data); err != ErrQueueFull {
		t.Errorf("queue of %d: err %v, want ErrQueueFull", MaxQueued, err)
	}
	if sent, err := wr.Flush(); sent != MaxQueued || err != nil || wr.Queued() != 0 {
		t.Errorf("Flush = %d, %v with %d still queued, want %d, nil, 0", sent, err, wr.Queued(), MaxQueued)
	}
}

// TestHasFrame: a Reader holds a frame once it has buffered all of it,
// to the last byte, and never before its first read.
func TestHasFrame(t *testing.T) {
	var have bytes.Buffer
	if err := NewWriter(&have).WriteMsg(&Message{Type: MsgHave, Index: 7}); err != nil {
		t.Fatal(err)
	}
	frame := have.Bytes()
	for _, tc := range []struct {
		name   string
		stream []byte
		want   []bool // HasFrame before each read, and after the last
	}{
		{"two frames", append(append([]byte{}, frame...), frame...), []bool{false, true, false}},
		{"a frame and all but one byte of the next", append(append([]byte{}, frame...), frame[:len(frame)-1]...), []bool{false, false}},
	} {
		rd := NewReader(bytes.NewReader(tc.stream))
		for i, want := range tc.want {
			if got := rd.HasFrame(); got != want {
				t.Errorf("%s: after %d reads: HasFrame = %v, want %v", tc.name, i, got, want)
			}
			if i < len(tc.want)-1 {
				if err := rd.ReadInto(&Message{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// failAfter takes n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	k := min(len(p), w.n)
	w.n -= k
	if k < len(p) {
		return k, io.ErrShortWrite
	}
	return k, nil
}

// TestFlushCountsPartialWrite: a flush that fails part-way reports only
// the payload bytes the stream took, a payload cut short included.
func TestFlushCountsPartialWrite(t *testing.T) {
	data := bytes.Repeat([]byte{1}, 100)
	wr := NewWriter(&failAfter{n: 2*pieceHeaderLen + len(data) + 40})
	for i := uint32(0); i < 3; i++ {
		if err := wr.QueuePiece(0, i*100, data); err != nil {
			t.Fatal(err)
		}
	}
	if sent, err := wr.Flush(); sent != len(data)+40 || err != io.ErrShortWrite {
		t.Errorf("Flush = %d, %v, want %d, io.ErrShortWrite", sent, err, len(data)+40)
	}
	if wr.Queued() != 0 {
		t.Errorf("%d frames still queued after a failed flush, want 0", wr.Queued())
	}
}
