// Package wire implements the BitTorrent-like peer messaging protocol the
// paper's application uses over TCP (Java sockets there, net.Conn here).
//
// Framing: a fixed handshake, then length-prefixed messages
//
//	uint32 length | uint8 type | payload
//
// Segments (the splicing unit) are transferred in 16 KiB blocks via
// Request/Piece, exactly like BitTorrent pieces, so a receiving peer can
// serve a segment's early blocks while still fetching its tail.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
)

// Sentinel decode/encode errors. The hot-path Encode/Decode/EncodedLen
// methods return these unwrapped (building a formatted error per
// message would allocate); callers add context where they report them.
var (
	ErrPieceSize     = errors.New("wire: piece data size out of range")
	ErrBitfieldSize  = errors.New("wire: bitfield size out of range")
	ErrUnknownType   = errors.New("wire: unknown message type")
	ErrFrameLength   = errors.New("wire: message length out of range")
	ErrPayloadSize   = errors.New("wire: payload size does not match message type")
	ErrRequestLength = errors.New("wire: request length out of range")
	ErrShortBuffer   = errors.New("wire: buffer too small for encoded message")
)

// ProtocolMagic identifies the protocol in the handshake.
const ProtocolMagic = "P2PSPLICE/1"

// Limits protecting decoders from hostile input.
const (
	// MaxBlockLen bounds a Piece payload (and a Request length): 128 KiB.
	MaxBlockLen = 128 << 10
	// MaxBitfieldLen bounds a Bitfield payload (supports 2^23 segments).
	MaxBitfieldLen = 1 << 20
	// DefaultBlockLen is the standard transfer block: 16 KiB.
	DefaultBlockLen = 16 << 10
)

// MessageType identifies a wire message.
type MessageType uint8

// Message types.
const (
	MsgChoke MessageType = iota
	MsgUnchoke
	MsgInterested
	MsgNotInterested
	MsgHave
	MsgBitfield
	MsgRequest
	MsgPiece
	MsgCancel
	MsgKeepAlive
)

// Message is one decoded wire message. Fields are populated according to
// Type: Have uses Index; Request/Cancel use Index/Offset/Length; Piece uses
// Index/Offset/Data; Bitfield uses Bitfield.
type Message struct {
	Type     MessageType
	Index    uint32
	Offset   uint32
	Length   uint32
	Bitfield []byte
	Data     []byte
}

// payloadLen returns the encoded payload size for m.
//
//lint:hotpath called per message on the encode path
func (m *Message) payloadLen() (int, error) {
	switch m.Type {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested, MsgKeepAlive:
		return 0, nil
	case MsgHave:
		return 4, nil
	case MsgRequest, MsgCancel:
		return 12, nil
	case MsgPiece:
		if len(m.Data) == 0 || len(m.Data) > MaxBlockLen {
			return 0, ErrPieceSize
		}
		return 8 + len(m.Data), nil
	case MsgBitfield:
		if len(m.Bitfield) == 0 || len(m.Bitfield) > MaxBitfieldLen {
			return 0, ErrBitfieldSize
		}
		return len(m.Bitfield), nil
	default:
		return 0, ErrUnknownType
	}
}

// EncodedLen returns the full frame size (length prefix included) that
// Encode will produce for m, or a sentinel error for an invalid message.
//
//lint:hotpath called per message on the encode path
func (m *Message) EncodedLen() (int, error) {
	plen, err := m.payloadLen()
	if err != nil {
		return 0, err
	}
	return 5 + plen, nil
}

// Encode writes m's frame into buf, which must hold at least
// EncodedLen bytes, and returns the number of bytes written.
//
//lint:hotpath the per-message encode: the benchmarks assert 0 allocs/op
func (m *Message) Encode(buf []byte) (int, error) {
	plen, err := m.payloadLen()
	if err != nil {
		return 0, err
	}
	n := 5 + plen
	if len(buf) < n {
		return 0, ErrShortBuffer
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(1+plen))
	buf[4] = byte(m.Type)
	p := buf[5:n]
	switch m.Type {
	case MsgHave:
		binary.BigEndian.PutUint32(p, m.Index)
	case MsgRequest, MsgCancel:
		binary.BigEndian.PutUint32(p[0:4], m.Index)
		binary.BigEndian.PutUint32(p[4:8], m.Offset)
		binary.BigEndian.PutUint32(p[8:12], m.Length)
	case MsgPiece:
		binary.BigEndian.PutUint32(p[0:4], m.Index)
		binary.BigEndian.PutUint32(p[4:8], m.Offset)
		copy(p[8:], m.Data)
	case MsgBitfield:
		copy(p, m.Bitfield)
	}
	return n, nil
}

// Decode populates m from one frame body (the bytes after the 4-byte
// length prefix: type byte plus payload), enforcing the payload limits.
// m is fully overwritten, so a caller may reuse one Message across
// frames; Data and Bitfield alias body and are valid only as long as
// the caller keeps body intact.
//
//lint:hotpath the per-message decode: the benchmarks assert 0 allocs/op
func (m *Message) Decode(body []byte) error {
	if len(body) == 0 {
		return ErrFrameLength
	}
	m.Type = MessageType(body[0])
	m.Index, m.Offset, m.Length = 0, 0, 0
	m.Bitfield, m.Data = nil, nil
	p := body[1:]
	switch m.Type {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested, MsgKeepAlive:
		if len(p) != 0 {
			return ErrPayloadSize
		}
	case MsgHave:
		if len(p) != 4 {
			return ErrPayloadSize
		}
		m.Index = binary.BigEndian.Uint32(p)
	case MsgRequest, MsgCancel:
		if len(p) != 12 {
			return ErrPayloadSize
		}
		m.Index = binary.BigEndian.Uint32(p[0:4])
		m.Offset = binary.BigEndian.Uint32(p[4:8])
		m.Length = binary.BigEndian.Uint32(p[8:12])
		if m.Length == 0 || m.Length > MaxBlockLen {
			return ErrRequestLength
		}
	case MsgPiece:
		if len(p) <= 8 || len(p) > 8+MaxBlockLen {
			return ErrPayloadSize
		}
		m.Index = binary.BigEndian.Uint32(p[0:4])
		m.Offset = binary.BigEndian.Uint32(p[4:8])
		m.Data = p[8:]
	case MsgBitfield:
		if len(p) == 0 || len(p) > MaxBitfieldLen {
			return ErrPayloadSize
		}
		m.Bitfield = p
	default:
		return ErrUnknownType
	}
	return nil
}

// readBufLen is a Reader's read-ahead: a few default-size PIECE frames.
const readBufLen = 64 << 10

// Reader decodes frames from a stream into caller-supplied Messages. It
// reads ahead through its own buffer, so it owns the stream: bytes it has
// buffered are gone from r. After warm-up, ReadInto and ReadDirect
// perform zero heap allocations per message. Not safe for concurrent use.
type Reader struct {
	r      io.Reader
	buf    []byte // read-ahead: buf[lo:hi] is read and not yet decoded
	lo, hi int
	big    []byte // frames larger than buf
	// lent records that the last frame's payload was read into a
	// destination PieceDst lent: the next fill then reads no further
	// than one PIECE header, so that the next payload can go to its
	// destination too rather than into buf.
	lent bool
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r, buf: make([]byte, readBufLen)} }

// PieceDst looks up where the n-byte payload of the PIECE at (index,
// offset) goes: a slice of exactly n bytes that the Reader fills, or nil
// to leave the payload in the Reader's buffer.
type PieceDst func(index, offset uint32, n int) []byte

// ReadInto reads one message into m. m's Data and Bitfield alias the
// Reader's buffers and are valid only until the next read; callers that
// retain payload bytes must copy them first. A frame that fits the
// read-ahead buffer is decoded in place; a larger one (a 128 KiB piece, a
// 1 MiB bitfield) is copied into a buffer that grows to the stream's
// high-water frame size. I/O errors are returned unwrapped, with
// io.ReadFull's convention: io.EOF only at a frame boundary.
//
//lint:hotpath the per-message read: the benchmarks assert 0 allocs/op
func (rd *Reader) ReadInto(m *Message) error { return rd.ReadDirect(m, nil) }

// ReadDirect reads one message into m as ReadInto does, except that once
// a PIECE's header is decoded it asks dst for the payload's destination.
// A slice of exactly the payload's length gets the bytes already
// buffered and then the rest straight from the stream, and m.Data is
// that slice; otherwise the payload is buffered as ReadInto buffers it.
// After a payload read that way, the next read from the stream stops at
// the following PIECE header, so a run of lent PIECEs is copied once,
// by the kernel. The frames accepted and the errors returned are
// ReadInto's; a read that fails mid-payload may have written part of the
// destination.
//
//lint:hotpath the per-message read: the benchmarks assert 0 allocs/op
func (rd *Reader) ReadDirect(m *Message, dst PieceDst) error {
	if err := rd.fill(4); err != nil {
		if rd.hi == rd.lo {
			return err // the stream ended, or failed, between frames
		}
		return midFrame(err)
	}
	length := binary.BigEndian.Uint32(rd.buf[rd.lo:])
	if length == 0 || length > 9+MaxBlockLen && length > 1+MaxBitfieldLen {
		return ErrFrameLength
	}
	if dst != nil && length > 9 && length <= 9+MaxBlockLen {
		if ok, err := rd.readLent(m, length, dst); ok || err != nil {
			return err
		}
	}
	rd.lent = false
	if n := 4 + int(length); n <= len(rd.buf) {
		if err := rd.fill(n); err != nil {
			return midFrame(err)
		}
		// Only the next read moves the buffered bytes: frame stays put
		// until then.
		frame := rd.buf[rd.lo+4 : rd.lo+n]
		rd.lo += n
		return m.Decode(frame)
	}
	rd.lo += 4
	if uint32(cap(rd.big)) < length {
		rd.big = make([]byte, length)
	}
	body := rd.big[:length]
	if err := rd.readFull(body); err != nil {
		return err
	}
	return m.Decode(body)
}

// readLent reads the frame of the given length, whose prefix is
// buffered, into m with its payload in dst's slice, if the frame is a
// PIECE and dst lends one. It reports whether it did.
//
//lint:hotpath under ReadDirect, per PIECE frame
func (rd *Reader) readLent(m *Message, length uint32, dst PieceDst) (bool, error) {
	if err := rd.fill(5); err != nil {
		return false, midFrame(err)
	}
	if MessageType(rd.buf[rd.lo+4]) != MsgPiece {
		return false, nil
	}
	if err := rd.fill(pieceHeaderLen); err != nil {
		return false, midFrame(err)
	}
	h := rd.buf[rd.lo+5 : rd.lo+pieceHeaderLen]
	index, offset := binary.BigEndian.Uint32(h[0:4]), binary.BigEndian.Uint32(h[4:8])
	n := int(length) - 9
	data := dst(index, offset, n)
	if len(data) != n {
		return false, nil
	}
	rd.lo += pieceHeaderLen
	if err := rd.readFull(data); err != nil {
		return true, err
	}
	rd.lent = true
	*m = Message{Type: MsgPiece, Index: index, Offset: offset, Data: data}
	return true, nil
}

// fill reads from the stream until at least n bytes (n <= len(buf)) are
// buffered. It reads as far ahead as the buffer allows, but after a lent
// payload no further than one PIECE header. Errors are io.ReadAtLeast's.
//
//lint:hotpath under ReadDirect, per stream read
func (rd *Reader) fill(n int) error {
	if rd.hi-rd.lo >= n {
		return nil
	}
	rd.hi = copy(rd.buf, rd.buf[rd.lo:rd.hi])
	rd.lo = 0
	limit := len(rd.buf)
	if rd.lent {
		limit = max(n, pieceHeaderLen)
	}
	k, err := io.ReadAtLeast(rd.r, rd.buf[rd.hi:limit], n-rd.hi)
	rd.hi += k
	return err
}

// readFull fills p with the bytes already buffered and then straight
// from the stream, reporting a short stream as io.ErrUnexpectedEOF.
//
//lint:hotpath under ReadDirect, per large or lent payload
func (rd *Reader) readFull(p []byte) error {
	k := copy(p, rd.buf[rd.lo:rd.hi])
	rd.lo += k
	if _, err := io.ReadFull(rd.r, p[k:]); err != nil {
		return midFrame(err)
	}
	return nil
}

// HasFrame reports whether the read-ahead buffer holds a complete frame,
// so that the next read returns without reading from the stream. A
// frame too large for the buffer never counts as held.
//
//lint:hotpath asked once per message by the peer read loop
func (rd *Reader) HasFrame() bool {
	n := rd.hi - rd.lo
	return n >= 4 && uint64(n) >= 4+uint64(binary.BigEndian.Uint32(rd.buf[rd.lo:]))
}

// midFrame reports a stream that ended inside a frame as ErrUnexpectedEOF.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Writer encodes messages to a stream through one reusable buffer:
// after warm-up, its methods perform zero heap allocations per message.
// Besides writing a frame at once, it queues PIECE frames without copying
// their payload and writes the queue in one vectored write. Not safe for
// concurrent use; callers serialize (the peer connection holds its write
// mutex around every call).
type Writer struct {
	w   io.Writer
	buf []byte

	// The PIECE queue: each frame is two buffers in bufs, its header (a
	// pieceHeaderLen slot of hdrs) and its payload, which the caller
	// lends until the flush; a WriteMsg or WriteRequests frame may follow
	// them as a last buffer. out is the copy net.Buffers.WriteTo consumes.
	hdrs []byte
	bufs net.Buffers
	out  net.Buffers
	// sent counts the PIECE payload bytes written since Flush last
	// returned them.
	sent int
}

// MaxQueued bounds a Writer's PIECE queue: 32 default blocks, 512 KiB per
// vectored write. Measured with the root BenchmarkStreamLoopback on two
// vCPUs (three rounds of ten streams each), caps of 1, 8, 32 and 128
// frames came within 4 % of one another in time per stream; 8 and 32 were
// the fastest and 32 spent the least CPU.
const MaxQueued = 32

// ErrQueueFull reports a QueuePiece on a queue already holding MaxQueued
// frames: the caller flushes first.
var ErrQueueFull = errors.New("wire: piece queue is full")

// pieceHeaderLen is a PIECE frame's size without its payload.
const pieceHeaderLen = 5 + 8

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Queued returns the number of PIECE frames queued and not yet flushed.
func (wr *Writer) Queued() int { return len(wr.bufs) / 2 }

// QueuePiece queues the PIECE frame for data at (index, offset) without
// copying data: the caller must leave data unchanged until the next
// Flush, WriteMsg or WriteRequests has written it. The frame's bytes are
// those WriteMsg would write for the same message.
//
//lint:hotpath the per-block serve: the benchmarks assert 0 allocs/op
func (wr *Writer) QueuePiece(index, offset uint32, data []byte) error {
	if len(data) == 0 || len(data) > MaxBlockLen {
		return ErrPieceSize
	}
	if wr.hdrs == nil {
		wr.hdrs = make([]byte, MaxQueued*pieceHeaderLen)
		wr.bufs = make(net.Buffers, 0, 2*MaxQueued+1)
	}
	q := wr.Queued()
	if q == MaxQueued {
		return ErrQueueFull
	}
	h := wr.hdrs[q*pieceHeaderLen : (q+1)*pieceHeaderLen]
	binary.BigEndian.PutUint32(h[0:4], uint32(pieceHeaderLen-4+len(data)))
	h[4] = byte(MsgPiece)
	binary.BigEndian.PutUint32(h[5:9], index)
	binary.BigEndian.PutUint32(h[9:13], offset)
	wr.bufs = append(wr.bufs, h, data)
	return nil
}

// Flush writes every queued frame to the stream as one net.Buffers write
// (writev(2) on a TCP conn; a stream without vectored writes gets one
// Write per buffer) and empties the queue. It returns the PIECE payload
// bytes written since the previous Flush — by this write, a partial one
// included, or ahead of a WriteMsg or WriteRequests frame. An empty queue
// costs no write. I/O errors are returned unwrapped.
//
//lint:hotpath the per-batch serve: the benchmarks assert 0 allocs/op
func (wr *Writer) Flush() (int, error) {
	err := wr.writeQueue()
	sent := wr.sent
	wr.sent = 0
	return sent, err
}

// writeQueue writes the queue, counts the PIECE payload bytes that got
// out and empties it. The write consumes the buffers it is handed, so the
// count reads each payload's length back from its frame header.
//
//lint:hotpath the per-batch serve: the benchmarks assert 0 allocs/op
func (wr *Writer) writeQueue() error {
	if len(wr.bufs) == 0 {
		return nil
	}
	q := wr.Queued()
	wr.out = wr.bufs
	n, err := wr.out.WriteTo(wr.w)
	for i := 0; i < q && n > pieceHeaderLen; i++ {
		plen := int64(binary.BigEndian.Uint32(wr.hdrs[i*pieceHeaderLen:])) - (pieceHeaderLen - 4)
		n -= pieceHeaderLen
		wr.sent += int(min(n, plen))
		n -= plen
	}
	clear(wr.bufs)
	wr.bufs = wr.bufs[:0]
	return err
}

// write writes one encoded frame after any queued frames, in one write,
// so frames never interleave and keep their order.
//
//lint:hotpath under WriteMsg and WriteRequests
func (wr *Writer) write(frame []byte) error {
	if len(wr.bufs) == 0 {
		_, err := wr.w.Write(frame)
		return err
	}
	wr.bufs = append(wr.bufs, frame)
	return wr.writeQueue()
}

// WriteMsg encodes m and writes the frame to the underlying stream,
// after any queued frames. I/O errors are returned unwrapped.
//
//lint:hotpath the per-message write: the benchmarks assert 0 allocs/op
func (wr *Writer) WriteMsg(m *Message) error {
	n, err := m.EncodedLen()
	if err != nil {
		return err
	}
	if cap(wr.buf) < n {
		wr.buf = make([]byte, n)
	}
	buf := wr.buf[:n]
	if _, err := m.Encode(buf); err != nil {
		return err
	}
	return wr.write(buf)
}

// requestFrameLen is the encoded size of a REQUEST frame.
const requestFrameLen = 5 + 12

// WriteRequests writes the REQUEST frames for every block of segment
// index — size bytes cut into blockLen blocks, the last one short — as one
// write to the underlying stream, after any queued frames: a segment's
// requests cost one syscall, not one each. I/O errors are returned
// unwrapped.
//
//lint:hotpath the per-segment request burst: the benchmarks assert 0 allocs/op
func (wr *Writer) WriteRequests(index uint32, size, blockLen int) error {
	if blockLen <= 0 || blockLen > MaxBlockLen {
		return ErrRequestLength
	}
	n := (size + blockLen - 1) / blockLen * requestFrameLen
	if n <= 0 {
		return nil
	}
	if cap(wr.buf) < n {
		wr.buf = make([]byte, n)
	}
	buf := wr.buf[:n]
	m := Message{Type: MsgRequest, Index: index}
	for off, w := 0, 0; off < size; off += blockLen {
		m.Offset, m.Length = uint32(off), uint32(min(blockLen, size-off))
		k, err := m.Encode(buf[w:])
		if err != nil {
			return err
		}
		w += k
	}
	return wr.write(buf)
}
