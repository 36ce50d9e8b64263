package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
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
