package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzRead checks the message decoder never panics, that the frames it
// accepts from a stream round-trip byte-identically, and that how the
// stream is split into reads changes nothing: one byte at a time and half
// of each request (iotest.OneByteReader, HalfReader) decode the same
// frames and stop on the same error as whole reads. That covers a Peek
// across split reads and the large-frame fallback.
func FuzzRead(f *testing.F) {
	seed := func(ms ...*Message) {
		var buf bytes.Buffer
		wr := NewWriter(&buf)
		for _, m := range ms {
			if err := wr.WriteMsg(m); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	seed(&Message{Type: MsgChoke})
	seed(&Message{Type: MsgHave, Index: 7})
	seed(&Message{Type: MsgRequest, Index: 1, Offset: 16384, Length: 16384})
	seed(&Message{Type: MsgPiece, Index: 1, Offset: 0, Data: []byte("data")})
	seed(&Message{Type: MsgBitfield, Bitfield: []byte{0xA5}})
	// Frames larger than the read-ahead buffer, after small ones.
	small := []*Message{{Type: MsgHave, Index: 3}, {Type: MsgRequest, Index: 2, Offset: 0, Length: DefaultBlockLen}}
	seed(append(small, &Message{Type: MsgPiece, Index: 2, Data: bytes.Repeat([]byte{0x5A}, MaxBlockLen)})...)
	seed(append(small, &Message{Type: MsgBitfield, Bitfield: bytes.Repeat([]byte{0xFF}, MaxBitfieldLen)}, &Message{Type: MsgUnchoke})...)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		whole, err := decodeAll(t, bytes.NewReader(data))
		// The re-encoding must match the consumed prefix of the input.
		if !bytes.Equal(whole, data[:len(whole)]) {
			t.Fatal("read/write not a bijection on accepted prefix")
		}
		for name, r := range map[string]io.Reader{
			"OneByteReader": iotest.OneByteReader(bytes.NewReader(data)),
			"HalfReader":    iotest.HalfReader(bytes.NewReader(data)),
		} {
			split, splitErr := decodeAll(t, r)
			if !bytes.Equal(split, whole) || splitErr != err {
				t.Fatalf("%s: decoded %d bytes then %v, whole reads %d bytes then %v",
					name, len(split), splitErr, len(whole), err)
			}
		}
	})
}

// decodeAll reads frames from r until the first error, re-encoding each
// one, and returns the re-encodings and that error (io.EOF at a clean end).
func decodeAll(t *testing.T, r io.Reader) ([]byte, error) {
	var out bytes.Buffer
	rd, wr := NewReader(r), NewWriter(&out)
	var m Message
	for {
		if err := rd.ReadInto(&m); err != nil {
			return out.Bytes(), err
		}
		if err := wr.WriteMsg(&m); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
	}
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
