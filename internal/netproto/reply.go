package netproto

import "encoding/binary"

// In-place reply encoding: the zero-copy read path. A responder (storage
// server or the switch's cached-GET fast path) leases a pooled buffer,
// opens the reply with ReplyInto, appends the value bytes straight from its
// store into the frame — no intermediate value slice, no Packet — and
// closes it with SealReply.

// Frame-relative offsets of the embedded packet header fields, assuming the
// frame starts at index 0 of the slice.
const (
	// FrameOpOff locates the packet OP byte within a frame.
	FrameOpOff = FrameHeaderSize + 2
	// FrameVlenOff locates the packet VLEN byte within a frame.
	FrameVlenOff = FrameHeaderSize + headerSize - 1
	// FrameValueOff locates the first value byte within a frame.
	FrameValueOff = FrameHeaderSize + headerSize
)

// ReplyInto appends a reply frame's headers to buf — frame header (dst,
// src, checksum placeholder) plus the packet header for (op, seq, key) with
// a zero VLEN — and returns the extended slice. The frame being opened must
// start at index 0 of buf (append value bytes, then call SealReply, which
// fixes VLEN and the checksum from the final length).
func ReplyInto(buf []byte, dst, src Addr, op Op, seq uint64, key Key) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(dst))
	buf = binary.BigEndian.AppendUint16(buf, uint16(src))
	buf = append(buf, 0, 0, 0, 0) // checksum placeholder
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, byte(op))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, key[:]...)
	buf = append(buf, 0) // VLEN placeholder
	return buf
}

// SetFrameOp patches the packet OP byte of an open frame (e.g. a reply
// downgraded to a miss after the store lookup). The checksum is only
// recomputed at SealReply.
func SetFrameOp(frame []byte, op Op) {
	frame[FrameOpOff] = byte(op)
}

// SealReply closes a frame opened by ReplyInto: everything appended past
// the headers is the value. It derives VLEN from the frame length, checks
// the protocol invariants, and computes the checksum.
func SealReply(frame []byte) error {
	vlen := len(frame) - FrameValueOff
	if vlen < 0 {
		return ErrShortPacket
	}
	if vlen > MaxValueSize {
		return ErrValueTooBig
	}
	if vlen > 0 && !Op(frame[FrameOpOff]).HasValue() {
		return ErrUnexpectedVal
	}
	frame[FrameVlenOff] = byte(vlen)
	FinalizeFrame(frame)
	return nil
}
