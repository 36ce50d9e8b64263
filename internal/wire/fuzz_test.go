package wire

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzRead checks the message decoder never panics, that the frames it
// accepts from a stream round-trip byte-identically, and that neither how
// the stream is split into reads nor which entry point reads it changes
// anything: ReadInto and ReadDirect, under whole reads, one byte at a
// time and half of each request (iotest.OneByteReader, HalfReader),
// decode the same frames and stop on the same error. ReadDirect's lookup
// lends a destination to every PIECE with an even index and declines the
// rest, so lent and buffered payloads interleave. That covers a header
// split across reads, a lent payload partly buffered, the read-ahead
// limit after one, and the large-frame fallback.
func FuzzRead(f *testing.F) {
	encode := func(ms ...*Message) []byte {
		var buf bytes.Buffer
		wr := NewWriter(&buf)
		for _, m := range ms {
			if err := wr.WriteMsg(m); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	seed := func(ms ...*Message) { f.Add(encode(ms...)) }
	piece := func(index uint32, n int) *Message {
		return &Message{Type: MsgPiece, Index: index, Offset: index * DefaultBlockLen, Data: bytes.Repeat([]byte{byte(index)}, n)}
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
	// Runs of PIECEs, lent and not, with other frames between them.
	seed(piece(0, DefaultBlockLen), piece(2, DefaultBlockLen), piece(3, 100))
	seed(piece(4, DefaultBlockLen), &Message{Type: MsgHave, Index: 9}, piece(6, 1))
	seed(append(small, piece(4, MaxBlockLen), piece(5, MaxBlockLen), piece(8, 10))...)
	cut := encode(piece(0, DefaultBlockLen), piece(2, DefaultBlockLen))
	f.Add(cut[:len(cut)-DefaultBlockLen/2]) // the stream ends mid-payload
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		whole, err := decodeAll(t, bytes.NewReader(data), false)
		// The re-encoding must match the consumed prefix of the input.
		if !bytes.Equal(whole, data[:len(whole)]) {
			t.Fatal("read/write not a bijection on accepted prefix")
		}
		for _, direct := range []bool{false, true} {
			for name, r := range map[string]io.Reader{
				"whole":         bytes.NewReader(data),
				"OneByteReader": iotest.OneByteReader(bytes.NewReader(data)),
				"HalfReader":    iotest.HalfReader(bytes.NewReader(data)),
			} {
				split, splitErr := decodeAll(t, r, direct)
				if !bytes.Equal(split, whole) || splitErr != err {
					t.Fatalf("%s, direct %v: decoded %d bytes then %v, whole reads %d bytes then %v",
						name, direct, len(split), splitErr, len(whole), err)
				}
			}
		}
	})
}

// decodeAll reads frames from r until the first error, re-encoding each
// one, and returns the re-encodings and that error (io.EOF at a clean
// end). With direct it reads through ReadDirect, lending a scratch
// destination to each PIECE with an even index, and checks that exactly
// those payloads arrive in it.
func decodeAll(t *testing.T, r io.Reader, direct bool) ([]byte, error) {
	var out bytes.Buffer
	rd, wr := NewReader(r), NewWriter(&out)
	var m Message
	var dst PieceDst
	scratch := make([]byte, MaxBlockLen)
	if direct {
		dst = func(index, _ uint32, n int) []byte {
			if index%2 != 0 {
				return nil
			}
			return scratch[:n]
		}
	}
	for {
		if err := rd.ReadDirect(&m, dst); err != nil {
			return out.Bytes(), err
		}
		if m.Type == MsgPiece && (&m.Data[0] == &scratch[0]) != (direct && m.Index%2 == 0) {
			t.Fatalf("PIECE %d, direct %v: payload in the scratch destination %v", m.Index, direct, &m.Data[0] == &scratch[0])
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
