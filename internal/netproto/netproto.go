// Package netproto implements the NetCache application-layer packet format.
//
// NetCache (SOSP'17, §4.1) embeds its protocol inside the L4 payload of UDP
// (read queries, for low latency) or TCP (write queries, for reliability)
// packets sent to a reserved port. The on-the-wire layout implemented here is
//
//	+--------+--------+----------------+----------+-----------------+
//	| MAGIC  |   OP   |      SEQ       | KEY(16B) | VLEN | VALUE... |
//	| 2 bytes| 1 byte |    8 bytes     | 16 bytes | 1 B  | 0..128 B |
//	+--------+--------+----------------+----------+------+----------+
//
// OP identifies the query type (Get, Put, Delete, and the internal coherence
// operations). SEQ is a sequence number for reliable UDP transmission of Get
// queries and a value version number for Put/Delete. KEY is a fixed 16-byte
// key (§5: variable-length keys are supported by hashing them to this fixed
// size and verifying the original key stored alongside the value). VALUE is
// present only on Get replies, Put requests, and cache-update messages, and
// is at most 128 bytes — the capacity of the switch's eight value stages
// (a control fetch reply adds the item's 8-byte store version in front).
//
// Switches that do not run NetCache forward these packets untouched; the
// NetCache switch recognizes them by the reserved L4 port carried by the
// enclosing transport.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"netcache/internal/rng"
	"netcache/internal/sketch"
)

// Port is the reserved L4 port that identifies NetCache traffic (§4.1).
// Both UDP (reads) and TCP (writes) use the same number.
const Port = 50000

// KeySize is the fixed key length of the restricted key-value interface (§5).
const KeySize = 16

// MaxValueSize is the largest value the switch data plane can serve: eight
// value stages, each appending one 16-byte register slot (§6).
const MaxValueSize = 128

// Magic marks the start of a NetCache payload so that stray datagrams on the
// reserved port are rejected rather than misparsed.
const Magic = 0x4E43 // "NC"

// headerSize is MAGIC + OP + SEQ + KEY + VLEN.
const headerSize = 2 + 1 + 8 + KeySize + 1

// MaxPacketSize is the largest encoded NetCache message: an OpCtlFetchReply
// carrying a MaxValueSize value behind its version.
const MaxPacketSize = headerSize + VersionSize + MaxValueSize

// VersionSize is the width of the store version an OpCtlFetchReply VALUE
// opens with.
const VersionSize = 8

// Op enumerates NetCache operations. The first three are the client-facing
// API (§3); the rest are internal to the cache-coherence and cache-update
// protocols (§4.2–§4.3).
type Op uint8

const (
	// OpInvalid is the zero Op and never appears on the wire.
	OpInvalid Op = iota

	// OpGet is a client read query.
	OpGet
	// OpGetReply answers an OpGet; VALUE holds the item. The switch
	// produces it directly on a cache hit, otherwise the storage server
	// does.
	OpGetReply
	// OpGetReplyMiss answers an OpGet for a key that does not exist.
	OpGetReplyMiss

	// OpPut is a client write query carrying the new VALUE.
	OpPut
	// OpPutCached is an OpPut rewritten by the switch to tell the storage
	// server that the key is resident in the switch cache and was
	// invalidated in flight (§4.3): after applying the write the server
	// must refresh the switch with OpCacheUpdate.
	OpPutCached
	// OpPutReply acknowledges a Put to the client.
	OpPutReply

	// OpDelete is a client delete query.
	OpDelete
	// OpDeleteCached is OpDelete rewritten by the switch, analogous to
	// OpPutCached; the server must evict the entry via the controller.
	OpDeleteCached
	// OpDeleteReply acknowledges a Delete to the client.
	OpDeleteReply

	// OpCacheUpdate carries a fresh value from a storage server into the
	// switch data plane after a write to a cached key. It is applied
	// entirely in the data plane at line rate (§4.3). SEQ carries the
	// value version so stale retransmissions are ignored.
	OpCacheUpdate
	// OpCacheUpdateAck confirms an OpCacheUpdate; the server retries
	// updates until acked (reliable update protocol, §6).
	OpCacheUpdateAck

	// Op 12 is retired: hot keys reach the controller as switch digests,
	// never as frames. The ops after it keep their wire numbers.
	_

	// OpCtlBlock asks a storage server to open a write-block window on
	// KEY — the controller's insertion protocol (§4.3) when controller
	// and servers are separate processes. Acknowledged with OpCtlAck.
	OpCtlBlock
	// OpCtlUnblock closes the write-block window; acknowledged with
	// OpCtlAck.
	OpCtlUnblock
	// OpCtlAck acknowledges a control request, echoing its SEQ.
	OpCtlAck
	// OpCtlStats asks the switch daemon for its counters; answered with
	// OpCtlStatsReply whose VALUE packs the numbers.
	OpCtlStats
	// OpCtlStatsReply carries the daemon counters.
	OpCtlStatsReply

	// OpReplicate carries a primary's applied write to its backup. SEQ is
	// the primary's store version of the write, so duplicated or reordered
	// replication frames are idempotent at the backup. The switch routes it
	// by destination address only: it is deliberately not a Put or Delete, so
	// the cache pipeline never rewrites or invalidates on replication traffic.
	OpReplicate
	// OpReplicateDelete replicates a delete; SEQ is the deletion version.
	OpReplicateDelete
	// OpReplicateAck confirms an OpReplicate/OpReplicateDelete, echoing
	// its SEQ. The primary retries replication until acked, and only then
	// acknowledges the client (replicate-before-ack).
	OpReplicateAck

	// OpCtlUncached tells a storage server that KEY is not in the switch
	// cache: the insertion whose OpCtlBlock window marked it cached
	// failed, or the controller evicted it. Acknowledged with OpCtlAck.
	OpCtlUncached

	// OpCtlFetch asks a storage server for KEY's value and store version:
	// the controller's cache-insertion read when controller and server are
	// separate processes. Answered with OpCtlFetchReply, or OpGetReplyMiss
	// when KEY is absent; both echo the request's SEQ.
	OpCtlFetch
	// OpCtlFetchReply answers OpCtlFetch. Its VALUE is the store version
	// (VersionSize bytes, big-endian) followed by the value, so it may run
	// VersionSize bytes past MaxValueSize; see AppendVersioned.
	OpCtlFetchReply

	opSentinel // keep last
)

var opNames = [...]string{
	OpInvalid:         "Invalid",
	OpGet:             "Get",
	OpGetReply:        "GetReply",
	OpGetReplyMiss:    "GetReplyMiss",
	OpPut:             "Put",
	OpPutCached:       "PutCached",
	OpPutReply:        "PutReply",
	OpDelete:          "Delete",
	OpDeleteCached:    "DeleteCached",
	OpDeleteReply:     "DeleteReply",
	OpCacheUpdate:     "CacheUpdate",
	OpCacheUpdateAck:  "CacheUpdateAck",
	OpCtlBlock:        "CtlBlock",
	OpCtlUnblock:      "CtlUnblock",
	OpCtlAck:          "CtlAck",
	OpCtlStats:        "CtlStats",
	OpCtlStatsReply:   "CtlStatsReply",
	OpReplicate:       "Replicate",
	OpReplicateDelete: "ReplicateDelete",
	OpReplicateAck:    "ReplicateAck",
	OpCtlUncached:     "CtlUncached",
	OpCtlFetch:        "CtlFetch",
	OpCtlFetchReply:   "CtlFetchReply",
}

// String returns the mnemonic name of the operation.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Valid reports whether op is a defined NetCache operation.
func (op Op) Valid() bool {
	return op > OpInvalid && op < opSentinel && opNames[op] != ""
}

// IsReply reports whether op is a response delivered to a client.
func (op Op) IsReply() bool {
	switch op {
	case OpGetReply, OpGetReplyMiss, OpPutReply, OpDeleteReply:
		return true
	}
	return false
}

// HasValue reports whether packets with this op may carry a VALUE field.
func (op Op) HasValue() bool {
	switch op {
	case OpGetReply, OpPut, OpPutCached, OpCacheUpdate, OpCtlStatsReply, OpReplicate, OpCtlFetchReply:
		return true
	}
	return false
}

// maxValue is the largest VALUE packets with this op may carry.
func (op Op) maxValue() int {
	if op == OpCtlFetchReply {
		return VersionSize + MaxValueSize
	}
	return MaxValueSize
}

// AppendVersioned appends the OpCtlFetchReply VALUE for a value at a store
// version to dst.
func AppendVersioned(dst []byte, version uint64, value []byte) []byte {
	return append(binary.BigEndian.AppendUint64(dst, version), value...)
}

// SplitVersioned is the inverse of AppendVersioned; ok is false when v is
// too short to hold a version and a non-empty value.
func SplitVersioned(v []byte) (value []byte, version uint64, ok bool) {
	if len(v) <= VersionSize {
		return nil, 0, false
	}
	return v[VersionSize:], binary.BigEndian.Uint64(v), true
}

// Key is the fixed-size NetCache key.
type Key [KeySize]byte

// KeyFromString builds a Key from s, truncating or zero-padding to KeySize.
// It is a convenience for examples and tests; production variable-length
// keys should go through HashKey so collisions are detectable (§5).
func KeyFromString(s string) Key {
	var k Key
	copy(k[:], s)
	return k
}

// String renders the key as a printable identifier: the longest printable
// prefix, or hex if the key is binary.
func (k Key) String() string {
	n := 0
	for n < KeySize && k[n] >= 0x20 && k[n] < 0x7f {
		n++
	}
	rest := k[n:]
	allZero := true
	for _, b := range rest {
		if b != 0 {
			allZero = false
			break
		}
	}
	if n > 0 && allZero {
		return string(k[:n])
	}
	return fmt.Sprintf("%x", k[:])
}

// HashKey maps a variable-length key to a fixed 16-byte Key: its halves are
// sketch.Hash64 under two seeds. Clients keep the original key to verify
// replies against hash collisions (§5).
func HashKey(raw []byte) Key {
	var k Key
	h1 := sketch.Hash64(raw, rng.Seeds[0])
	h2 := sketch.Hash64(raw, rng.Seeds[1])
	binary.BigEndian.PutUint64(k[0:8], h1)
	binary.BigEndian.PutUint64(k[8:16], h2)
	return k
}

// Packet is a decoded NetCache message. The zero Packet is invalid (OpInvalid).
type Packet struct {
	Op    Op
	Seq   uint64 // retransmission sequence (reads) or value version (writes)
	Key   Key
	Value []byte // nil when the op carries no value
}

// Errors returned by Decode and Packet.Validate.
var (
	ErrShortPacket   = errors.New("netproto: packet too short")
	ErrBadMagic      = errors.New("netproto: bad magic")
	ErrBadOp         = errors.New("netproto: unknown op")
	ErrValueTooBig   = errors.New("netproto: value exceeds 128 bytes")
	ErrTruncated     = errors.New("netproto: value truncated")
	ErrUnexpectedVal = errors.New("netproto: op does not carry a value")
)

// Validate checks the structural invariants of p.
func (p *Packet) Validate() error {
	if !p.Op.Valid() {
		return ErrBadOp
	}
	if len(p.Value) > p.Op.maxValue() {
		return ErrValueTooBig
	}
	if len(p.Value) > 0 && !p.Op.HasValue() {
		return ErrUnexpectedVal
	}
	return nil
}

// EncodedSize returns the number of bytes Encode will produce for p.
func (p *Packet) EncodedSize() int { return headerSize + len(p.Value) }

// Encode appends the wire form of p to buf and returns the extended slice.
// It returns an error if p violates the protocol invariants.
func (p *Packet) Encode(buf []byte) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return buf, err
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = byte(p.Op)
	binary.BigEndian.PutUint64(hdr[3:11], p.Seq)
	copy(hdr[11:11+KeySize], p.Key[:])
	hdr[11+KeySize] = byte(len(p.Value))
	buf = append(buf, hdr[:]...)
	buf = append(buf, p.Value...)
	return buf, nil
}

// Marshal returns the wire form of p in a fresh slice.
func (p *Packet) Marshal() ([]byte, error) {
	return p.Encode(make([]byte, 0, p.EncodedSize()))
}

// Decode parses a NetCache message from b into p. The Value field aliases b;
// callers that retain the packet beyond the life of b must copy it.
func Decode(b []byte, p *Packet) error {
	if len(b) < headerSize {
		return ErrShortPacket
	}
	if binary.BigEndian.Uint16(b[0:2]) != Magic {
		return ErrBadMagic
	}
	op := Op(b[2])
	if !op.Valid() {
		return ErrBadOp
	}
	vlen := int(b[11+KeySize])
	if vlen > op.maxValue() {
		return ErrValueTooBig
	}
	if len(b) < headerSize+vlen {
		return ErrTruncated
	}
	p.Op = op
	p.Seq = binary.BigEndian.Uint64(b[3:11])
	copy(p.Key[:], b[11:11+KeySize])
	if vlen > 0 {
		p.Value = b[headerSize : headerSize+vlen]
	} else {
		p.Value = nil
	}
	return p.Validate()
}

// Reply constructs the reply packet for a request, mirroring how the switch
// swaps L2–L4 source/destination fields and flips the op (§4.2). value is
// used only for Get replies.
func Reply(req *Packet, value []byte, found bool) Packet {
	switch req.Op {
	case OpGet:
		if !found {
			return Packet{Op: OpGetReplyMiss, Seq: req.Seq, Key: req.Key}
		}
		return Packet{Op: OpGetReply, Seq: req.Seq, Key: req.Key, Value: value}
	case OpPut, OpPutCached:
		return Packet{Op: OpPutReply, Seq: req.Seq, Key: req.Key}
	case OpDelete, OpDeleteCached:
		return Packet{Op: OpDeleteReply, Seq: req.Seq, Key: req.Key}
	default:
		return Packet{}
	}
}

// String renders a compact human-readable form for logs and tests.
func (p *Packet) String() string {
	if p.Op.HasValue() {
		return fmt.Sprintf("%s seq=%d key=%s vlen=%d", p.Op, p.Seq, p.Key, len(p.Value))
	}
	return fmt.Sprintf("%s seq=%d key=%s", p.Op, p.Seq, p.Key)
}
