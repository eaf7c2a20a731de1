package switchcore

import (
	"encoding/binary"

	"netcache/internal/bufpool"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
)

// The compiled cached-GET fast path. A valid cache-hit read is the packet
// the whole NetCache design exists to serve, and on that packet the generic
// table interpreter spends most of its time on machinery whose outcome is
// statically known: gateway checks on PHV fields the parser just set,
// per-stage register bookkeeping, PHV container stores that the deparser
// immediately reads back. fastGet is that traversal with the interpretation
// folded away — parse the five header fields it needs by offset, probe the
// lookup and route tables, read the status/vlen/value registers under the
// key's stripe lock, and emit the reply frame directly into a pooled lease.
//
// The contract is strict behavior preservation, held by differential tests
// (fastpath_test.go) that run the same traffic through a fast-path and an
// interpreter-only switch and require byte-identical emissions and identical
// counters:
//
//   - Bail-outs are free of side effects. Until the commit point below, the
//     fast path performs only pure reads (header peeks, table probes, the
//     lookup re-probe and validity bit under the stripe read lock). Any packet it declines —
//     wrong shape, cache miss, no reply route, bad checksum, invalid entry —
//     falls through to the interpreter having consumed nothing, not even a
//     roll of the sampler RNG, so the two paths' sampling streams stay
//     aligned.
//   - The commit path replicates every observable effect of the interpreted
//     traversal: each table the packet logically traversed gets its hit or
//     miss recorded (including the per-bitmap-bit hits of the value stages),
//     the sampler advances exactly once, a sampled hit bumps the per-key
//     counter, the pipeline's rx/pipe/mirror/tx counters move, and the §4.3
//     stripe lock spans the validity check and every value read, so a
//     concurrent invalidation or driver update is never observed torn.
//
// The sketch, Bloom filter and heavy-hitter stages are gated to cache
// misses, and the digest feed only fires on misses and refused updates, so a
// valid cache hit touches none of them on either path.

// fastGet attempts to serve frame as a valid cached GET. It returns the
// reply emission and true when it fully handled the packet; (zero, false)
// means the caller must run the interpreter, and nothing has happened yet.
func (sw *Switch) fastGet(frame []byte, inPort int) (dataplane.Emitted, bool) {
	if sw.cfg.DisableFastPath {
		return dataplane.Emitted{}, false
	}
	// Shape check: exactly a bare GET frame (frame header + packet header,
	// VLEN 0, no trailing bytes). Writes, updates, replies, valued or
	// malformed frames, and non-NetCache traffic all fall through.
	if len(frame) != frameValueOff ||
		netproto.Op(frame[frameOpOff]) != netproto.OpGet ||
		frame[frameVlenOff] != 0 ||
		binary.BigEndian.Uint16(frame[netproto.FrameHeaderSize:]) != netproto.Magic {
		return dataplane.Emitted{}, false
	}
	if inPort < 0 || inPort >= sw.cfg.Chip.NumPorts() {
		return dataplane.Emitted{}, false // interpreter reports the error
	}
	keyHi := binary.BigEndian.Uint64(frame[frameKeyOff : frameKeyOff+8])
	keyLo := binary.BigEndian.Uint64(frame[frameKeyOff+8 : frameKeyOff+16])
	// Pure probes, no statistics yet: is the key cached, and does the reply
	// route (back toward the requesting client, §4.4.4) exist? Probing
	// before the checksum keeps the dominant bail-out — an uncached key —
	// from paying the frame hash twice.
	le := sw.lookup.ProbeExact(keyHi, keyLo)
	if le == nil {
		return dataplane.Emitted{}, false
	}
	d := le.Data[0]
	bitmap := d >> 48
	vidx := int((d >> 32) & 0xFFFF)
	kidx := int((d >> 16) & 0xFFFF)
	srvPort := int(d & 0xFFFF)
	if srvPort >= sw.cfg.Chip.NumPorts() {
		return dataplane.Emitted{}, false // interpreter counts the pipe drop
	}
	l2Src := netproto.Addr(binary.BigEndian.Uint16(frame[2:4]))
	re := sw.route.ProbeExact(uint64(l2Src))
	if re == nil || re.Action != "set_port" {
		return dataplane.Emitted{}, false // default action drops; let it
	}
	clntPort := int(re.Data[0])
	// Integrity last: a corrupt frame that probed this far is re-verified
	// and counted by the interpreter's parser.
	if !netproto.VerifyFrame(frame) {
		return dataplane.Emitted{}, false
	}

	// §4.3 per-key serialization: the read lock spans the validity check and
	// every vlen/value register read, exactly like the interpreted packet
	// holds it from the lookup hit action to pipeline exit. The probe ran
	// before the lock, so the controller may since have evicted the key
	// and reused its key index or value slots: the entry must still carry
	// the data word the probe saw.
	mu := sw.keyLock(kidx)
	mu.RLock()
	if le = sw.lookup.ProbeExact(keyHi, keyLo); le == nil || le.Data[0] != d || sw.valid.Get(kidx) != 1 {
		mu.RUnlock()
		return dataplane.Emitted{}, false // interpreter forwards to the server
	}

	// Commit: from here the packet is ours, and every effect of the
	// interpreted traversal is replicated.
	sampled := sw.sampler.Sample()
	if sampled {
		sw.ctr.AddSat(kidx, 1)
	}
	vlen := int(sw.vlen.Get(kidx))

	lease := bufpool.Get()
	l2Dst := netproto.Addr(binary.BigEndian.Uint16(frame[0:2]))
	seq := binary.BigEndian.Uint64(frame[frameSeqOff : frameSeqOff+8])
	var key netproto.Key
	copy(key[:], frame[frameKeyOff:frameKeyOff+netproto.KeySize])
	out := netproto.ReplyInto(lease, l2Src, l2Dst, netproto.OpGetReply, seq, key)
	var tmp [16]byte
	for i := 0; i < sw.cfg.ValueArrays; i++ {
		if bitmap&(1<<i) == 0 {
			sw.valueT[i].NoteMiss()
			continue
		}
		sw.valueT[i].NoteHit()
		remaining := vlen - (len(out) - netproto.FrameValueOff)
		if remaining <= 0 {
			continue
		}
		if remaining > 16 {
			remaining = 16
		}
		sw.values[i].GetBytes(vidx, tmp[:])
		out = append(out, tmp[:remaining]...)
	}
	mu.RUnlock()
	if err := netproto.SealReply(out); err != nil {
		// Unreachable: vlen is driver- and update-bounded to MaxValueSize
		// and the value stages append at most vlen bytes. Emit the frame
		// unsealed rather than diverge on a can't-happen branch.
		_ = err
	}

	// Table statistics of the traversal: lookup hit, prep_route hit (the
	// static {hit, Get} → route_on_src entry), route hit, sample default
	// roll, status check hit, vlen read hit, the value-stage notes above,
	// counter-bump default when sampled (its gateway is closed otherwise), and
	// the mirror default. Then the pipeline's own packet counters.
	sw.lookup.NoteHit()
	sw.prep.NoteHit()
	sw.route.NoteHit()
	sw.sampleT.NoteMiss()
	sw.statusT.NoteHit()
	sw.vlenT.NoteHit()
	if sampled {
		sw.ctrT.NoteMiss()
	}
	sw.mirrorT.NoteMiss()
	sw.pl.CountBypass(srvPort)
	return dataplane.Emitted{Port: clntPort, Frame: out, Pooled: true}, true
}
