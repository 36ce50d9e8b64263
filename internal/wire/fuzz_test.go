package wire

import (
	"bytes"
	"testing"
)

// FuzzRead checks the message decoder never panics and that accepted
// messages round-trip byte-identically.
func FuzzRead(f *testing.F) {
	seed := func(m *Message) {
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteMsg(m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(&Message{Type: MsgChoke})
	seed(&Message{Type: MsgHave, Index: 7})
	seed(&Message{Type: MsgRequest, Index: 1, Offset: 16384, Length: 16384})
	seed(&Message{Type: MsgPiece, Index: 1, Offset: 0, Data: []byte("data")})
	seed(&Message{Type: MsgBitfield, Bitfield: []byte{0xA5}})
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := NewReader(bytes.NewReader(data)).ReadInto(&m); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteMsg(&m); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		// The re-encoding must match the consumed prefix of the input.
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("read/write not a bijection on accepted prefix")
		}
	})
}

// FuzzReadHandshake checks the handshake decoder never panics.
func FuzzReadHandshake(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, Handshake{}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{11})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadHandshake(bytes.NewReader(data))
	})
}
