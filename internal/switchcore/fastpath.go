package switchcore

import (
	"encoding/binary"

	"netcache/internal/bufpool"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
)

// The compiled traversal (DESIGN.md §12). Most frames cross the program
// along a few fixed paths whose every gateway outcome is known once the
// op and the cache_lookup probe are: a valid cached Get is answered from
// the value stages; an uncached Get (after the sampled Count-Min and Bloom
// stages, §4.4.3), an uncached write, and any op the lookup does not match
// are forwarded unchanged on route[dst]. compiled is those paths with the
// interpretation folded away. The interpreter keeps CacheUpdate (its
// deparser acks it even on a lookup miss), writes to cached keys, invalid
// entries, and corrupt, foreign, trailing-byte or unrouted frames.
//
// Behavior is preserved exactly, as the differential tests in
// fastpath_test.go check:
//
//   - A bail-out has no side effect. Before its commit point the compiled
//     path only reads (header, table probes, checksum, and a hit's re-probe
//     and validity bit under the stripe read lock), so even the sampler
//     stream stays aligned with the interpreter's.
//   - A commit replicates every effect of the interpreted traversal: the
//     sampler roll, the sampled hit's counter bump, the sampled miss's
//     sketch rows, Bloom test-and-sets and hh_report digest, and the §4.3
//     stripe lock from a hit's validity check to its last value read.
//   - Counters: a commit makes one atomic add, Pipeline.CountCompiled,
//     into its ingress port's row, which Pipeline.Stats folds into the
//     packet, egress-pipe and mirror counts the interpreter would have
//     moved.

// compiled attempts to carry frame along one of the compiled paths. It
// returns the emission and true when it fully handled the packet; (zero,
// false) means the caller must run the interpreter, and nothing has
// happened yet.
func (sw *Switch) compiled(frame []byte, inPort int) (dataplane.Emitted, bool) {
	// Shape and the parser's Decode checks, by offset: a NetCache frame
	// of exactly header + VLEN bytes, a valid op, a value only on an op
	// that carries one.
	if len(frame) < frameValueOff ||
		binary.BigEndian.Uint16(frame[netproto.FrameHeaderSize:]) != netproto.Magic {
		return dataplane.Emitted{}, false
	}
	op := netproto.Op(frame[frameOpOff])
	vlen := int(frame[frameVlenOff])
	if len(frame) != frameValueOff+vlen || !op.Valid() || op == netproto.OpCacheUpdate ||
		vlen > netproto.MaxValueSize || vlen > 0 && !op.HasValue() {
		return dataplane.Emitted{}, false
	}
	if inPort < 0 || inPort >= sw.cfg.Chip.NumPorts() {
		return dataplane.Emitted{}, false // interpreter reports the error
	}
	keyHi := binary.BigEndian.Uint64(frame[frameKeyOff : frameKeyOff+8])
	keyLo := binary.BigEndian.Uint64(frame[frameKeyOff+8 : frameKeyOff+16])
	switch op {
	case netproto.OpGet:
		if le := sw.lookup.ProbeExact(keyHi, keyLo); le != nil {
			return sw.serveHit(frame, inPort, le.Data[0], keyHi, keyLo)
		}
	case netproto.OpPut, netproto.OpPutCached, netproto.OpDelete, netproto.OpDeleteCached:
		if sw.lookup.ProbeExact(keyHi, keyLo) != nil {
			return dataplane.Emitted{}, false // invalidation: interpreted
		}
	}
	re := sw.route.ProbeExact(uint64(binary.BigEndian.Uint16(frame[0:2])))
	if re == nil || re.Action != "set_port" || re.Data[0] >= uint64(sw.cfg.Chip.NumPorts()) {
		return dataplane.Emitted{}, false // the interpreter drops it
	}
	if !netproto.VerifyFrame(frame) {
		return dataplane.Emitted{}, false // the interpreter's parser counts it
	}

	// Commit: the frame leaves unchanged on its route.
	port := int(re.Data[0])
	if op == netproto.OpGet {
		sw.missStats(keyHi, keyLo)
	}
	sw.pl.CountCompiled(inPort, port, false)
	return dataplane.Emitted{Port: port, Frame: append(bufpool.Get(), frame...), Pooled: true}, true
}

// missStats runs the statistics stages of an uncached Get — sample, the
// four Count-Min rows and hh_check, then for a hot key the Bloom test-and-
// sets and hh_report.
func (sw *Switch) missStats(keyHi, keyLo uint64) {
	if !sw.sampler.Sample() {
		return
	}
	idx := sw.cmsIndexes(keyHi, keyLo)
	var est uint64
	for row, r := range sw.cms {
		if v := r.AddSat(idx[row], 1); row == 0 || v < est {
			est = v
		}
	}
	if est < sw.cfg.HotThreshold {
		return
	}
	fresh := false
	for part, r := range sw.bloom {
		if r.Swap(sw.bloomIndex(keyHi, keyLo, part), 1) == 0 {
			fresh = true
		}
	}
	if fresh {
		d := digest(digestHot, keyHi, keyLo, est)
		sw.pl.Digest(d[:])
	}
}

// serveHit answers a Get whose key the lookup probe found, entry data d,
// from the value stages — or declines it, side-effect free, when the reply
// route is missing or the entry is not (or no longer) valid.
func (sw *Switch) serveHit(frame []byte, inPort int, d, keyHi, keyLo uint64) (dataplane.Emitted, bool) {
	bitmap := d >> 48
	vidx := int((d >> 32) & 0xFFFF)
	kidx := int((d >> 16) & 0xFFFF)
	srvPort := int(d & 0xFFFF)
	if srvPort >= sw.cfg.Chip.NumPorts() {
		return dataplane.Emitted{}, false // interpreter counts the pipe drop
	}
	// The reply goes back toward the requesting client (§4.4.4).
	l2Src := netproto.Addr(binary.BigEndian.Uint16(frame[2:4]))
	re := sw.route.ProbeExact(uint64(l2Src))
	if re == nil || re.Action != "set_port" {
		return dataplane.Emitted{}, false // default action drops; let it
	}
	clntPort := int(re.Data[0])
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
	if le := sw.lookup.ProbeExact(keyHi, keyLo); le == nil || le.Data[0] != d || sw.valid.Get(kidx) != 1 {
		mu.RUnlock()
		return dataplane.Emitted{}, false // interpreter forwards to the server
	}

	// Commit: from here the packet is ours.
	if sw.sampler.Sample() {
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
		remaining := vlen - (len(out) - netproto.FrameValueOff)
		if bitmap&(1<<i) == 0 || remaining <= 0 {
			continue
		}
		sw.values[i].GetBytes(vidx, tmp[:])
		out = append(out, tmp[:min(remaining, 16)]...)
	}
	mu.RUnlock()
	if err := netproto.SealReply(out); err != nil {
		// Unreachable: vlen is driver- and update-bounded to MaxValueSize
		// and the value stages append at most vlen bytes. Emit the frame
		// unsealed rather than diverge on a can't-happen branch.
		_ = err
	}
	sw.pl.CountCompiled(inPort, srvPort, true)
	return dataplane.Emitted{Port: clntPort, Frame: out, Pooled: true}, true
}
