package switchcore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"netcache/internal/cachemem"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
)

// The differential harness: the same configuration, traffic and driver
// operations applied to a switch through its entry point (compiled paths
// first) and to a twin through its table interpreter alone must be
// indistinguishable — byte-identical emissions on every packet, identical
// pipeline counters, identical registers (cache state and the Count-Min and
// Bloom statistics) and the same digests. SampleRate sits
// strictly between 0 and 1 so both the sampled and unsampled commit paths
// run, and counter equality at the end proves the two switches' sampler RNG
// streams never diverged. The hot threshold is low enough for the Bloom and
// hh_report stages to fire on a short stream.

const (
	diffClientAddr netproto.Addr = 100
	diffClient2    netproto.Addr = 101
	diffServerAddr netproto.Addr = 200
	diffUnrouted   netproto.Addr = 999
	diffClientPort               = 2
	diffClient2Prt               = 3
	diffServerPort               = 1
)

func diffConfig() Config {
	cfg := TestConfig()
	cfg.SampleRate = 0.5
	cfg.SampleSeed = 7
	cfg.HotThreshold = 2
	return cfg
}

// diffRig is the differential pair: fast takes frames through its entry
// point, interp through its table interpreter (see feed). digests records
// each switch's data-plane digests, as assertSame drains them.
type diffRig struct {
	fast, interp *Switch
	digests      map[*Switch][]string
}

// newDiffRig builds the two switches and provisions identical routes.
func newDiffRig(t testing.TB, cfg Config) *diffRig {
	t.Helper()
	r := &diffRig{digests: map[*Switch][]string{}}
	for _, sw := range []**Switch{&r.fast, &r.interp} {
		var err error
		if *sw, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		s := *sw
		mustInstall(t, s.InstallRoute(diffClientAddr, diffClientPort))
		mustInstall(t, s.InstallRoute(diffClient2, diffClient2Prt))
		mustInstall(t, s.InstallRoute(diffServerAddr, diffServerPort))
	}
	return r
}

// both applies a driver operation to both switches.
func (r *diffRig) both(t testing.TB, op func(sw *Switch) error) {
	t.Helper()
	mustInstall(t, op(r.fast))
	mustInstall(t, op(r.interp))
}

func (r *diffRig) install(t testing.TB, e CacheEntry) {
	t.Helper()
	r.both(t, func(sw *Switch) error { return sw.InstallCacheEntry(e) })
}

func (r *diffRig) remove(t testing.TB, e CacheEntry) {
	t.Helper()
	r.both(t, func(sw *Switch) error {
		_, err := sw.RemoveCacheEntry(e.Key, e.KeyIndex)
		return err
	})
}

func (r *diffRig) resetStats(t testing.TB) {
	r.both(t, func(sw *Switch) error {
		sw.ResetStats(false)
		return nil
	})
}

func mustInstall(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func diffKey(i int) netproto.Key {
	var k netproto.Key
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[15] = 0xD1
	return k
}

func diffValue(i, size int) []byte {
	v := make([]byte, size)
	for j := range v {
		v[j] = byte(i*31 + j)
	}
	return v
}

func diffEntry(i int) CacheEntry {
	size := 1 + (i*37)%netproto.MaxValueSize
	slots := (size + 15) / 16
	return CacheEntry{
		Key:        diffKey(i),
		Placement:  cachemem.Placement{Bitmap: uint16(1<<slots - 1), Index: i, Size: size},
		KeyIndex:   i,
		ServerPort: diffServerPort,
		Value:      diffValue(i, size),
		Version:    uint64(i + 1),
	}
}

// feed sends one frame through fast's entry point and interp's table
// interpreter and requires identical emissions and errors.
func (r *diffRig) feed(t testing.TB, frame []byte, inPort int) {
	t.Helper()
	fe, ferr := r.fast.ProcessAppend(frame, inPort, nil)
	ie, ierr := r.interp.Pipeline().ProcessAppend(frame, inPort, nil)
	if (ferr == nil) != (ierr == nil) {
		t.Fatalf("error divergence: fast=%v interp=%v", ferr, ierr)
	}
	if len(fe) != len(ie) {
		t.Fatalf("emission count divergence: fast=%d interp=%d", len(fe), len(ie))
	}
	for i := range fe {
		if fe[i].Port != ie[i].Port {
			t.Fatalf("emission %d port divergence: fast=%d interp=%d", i, fe[i].Port, ie[i].Port)
		}
		if !bytes.Equal(fe[i].Frame, ie[i].Frame) {
			t.Fatalf("emission %d frame divergence (port %d):\nfast:   %x\ninterp: %x",
				i, fe[i].Port, fe[i].Frame, ie[i].Frame)
		}
	}
	for _, e := range fe {
		dataplane.ReleaseFrame(e)
	}
	for _, e := range ie {
		dataplane.ReleaseFrame(e)
	}
}

func encodeFrame(t testing.TB, dst, src netproto.Addr, pkt netproto.Packet) []byte {
	t.Helper()
	frame, err := netproto.AppendFramePacket(nil, dst, src, &pkt)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// passFrame is a frame no cache_lookup entry matches, chosen by sel: one of
// the replies, replication and its ack, toward a client or a server.
func passFrame(t testing.TB, sel, seq uint64, key netproto.Key) (frame []byte, inPort int) {
	t.Helper()
	toClient := netproto.Packet{Seq: seq, Key: key}
	switch sel % 6 {
	case 0:
		toClient.Op, toClient.Value = netproto.OpGetReply, diffValue(int(seq), 1+int(seq%netproto.MaxValueSize))
	case 1:
		toClient.Op = netproto.OpGetReplyMiss
	case 2:
		toClient.Op = netproto.OpPutReply
	case 3:
		toClient.Op = netproto.OpDeleteReply
	case 4: // primary to backup, entering on a client port
		return encodeFrame(t, diffServerAddr, diffClientAddr, netproto.Packet{
			Op: netproto.OpReplicate, Seq: seq, Key: key, Value: diffValue(int(seq), 1+int(seq%17)),
		}), diffClientPort
	case 5:
		toClient.Op = netproto.OpReplicateAck
	}
	return encodeFrame(t, diffClientAddr, diffServerAddr, toClient), diffServerPort
}

// oddFrame is a frame the compiled paths decline by shape or route, chosen
// by sel: a reply or a write with a trailing byte, or a write, a reply or a
// Get toward an unrouted address.
func oddFrame(t testing.TB, sel, seq uint64, key netproto.Key) (frame []byte, inPort int) {
	t.Helper()
	switch sel % 5 {
	case 0:
		frame, inPort = passFrame(t, sel/5, seq, key)
	case 1:
		frame, inPort = encodeFrame(t, diffServerAddr, diffClientAddr,
			netproto.Packet{Op: netproto.OpPut, Seq: seq, Key: key, Value: []byte("v")}), diffClientPort
	case 2:
		return encodeFrame(t, diffUnrouted, diffClientAddr,
			netproto.Packet{Op: netproto.OpPut, Seq: seq, Key: key, Value: []byte("v")}), diffClientPort
	case 3:
		return encodeFrame(t, diffUnrouted, diffServerAddr,
			netproto.Packet{Op: netproto.OpGetReplyMiss, Seq: seq, Key: key}), diffServerPort
	default:
		return encodeFrame(t, diffUnrouted, diffClientAddr,
			netproto.Packet{Op: netproto.OpGet, Seq: seq, Key: key}), diffClientPort
	}
	frame = append(frame, 0xEE)
	netproto.FinalizeFrame(frame)
	return frame, inPort
}

// assertSame compares everything observable after the streams quiesce.
func (r *diffRig) assertSame(t testing.TB, nKeys int) {
	t.Helper()
	fast, interp := r.fast, r.interp
	fs, is := fast.pl.Stats(), interp.pl.Stats()
	if !reflect.DeepEqual(fs, is) {
		t.Fatalf("pipeline counter divergence:\nfast:   %+v\ninterp: %+v", fs, is)
	}
	for k := 0; k < nKeys; k++ {
		if fv, iv := fast.valid.Get(k), interp.valid.Get(k); fv != iv {
			t.Fatalf("valid[%d] divergence: fast=%d interp=%d", k, fv, iv)
		}
		if fv, iv := fast.ctr.Get(k), interp.ctr.Get(k); fv != iv {
			t.Fatalf("ctr[%d] divergence: fast=%d interp=%d (sampler streams split)", k, fv, iv)
		}
		if fv, iv := fast.vlen.Get(k), interp.vlen.Get(k); fv != iv {
			t.Fatalf("vlen[%d] divergence: fast=%d interp=%d", k, fv, iv)
		}
	}
	stats := func(sw *Switch) []*dataplane.Register { return append(sw.cms[:], sw.bloom[:]...) }
	for i, fr := range stats(fast) {
		ir := stats(interp)[i]
		for slot := 0; slot < fr.Slots(); slot++ {
			if fv, iv := fr.Get(slot), ir.Get(slot); fv != iv {
				t.Fatalf("%s[%d] divergence: fast=%d interp=%d", fr.Name(), slot, fv, iv)
			}
		}
	}
	for _, s := range []*Switch{fast, interp} {
		s.pl.DrainDigests(func(payload []byte) {
			r.digests[s] = append(r.digests[s], fmt.Sprintf("%x", payload))
		})
	}
	fd, id := slices.Clone(r.digests[fast]), slices.Clone(r.digests[interp])
	slices.Sort(fd)
	slices.Sort(id)
	if !slices.Equal(fd, id) {
		t.Fatalf("digest divergence:\nfast:   %v\ninterp: %v", fd, id)
	}
}

// TestFastPathDifferential drives a randomized op stream — cached and
// uncached reads, writes, data-plane updates (owned and foreign ports),
// replies and replication, installs/evicts, statistics resets, corrupted,
// junk-extended and unrouted frames — through both switches and requires
// equality packet by packet and in the final state.
func TestFastPathDifferential(t *testing.T) {
	r := newDiffRig(t, diffConfig())

	const nKeys = 24
	installed := make([]bool, nKeys)
	for i := 0; i < nKeys/2; i++ {
		r.install(t, diffEntry(i))
		installed[i] = true
	}

	rng := rand.New(rand.NewSource(0xD1FF))
	var seq uint64
	for step := 0; step < 4000; step++ {
		i := rng.Intn(nKeys)
		key := diffKey(i)
		seq++
		switch op := rng.Intn(13); op {
		case 0, 1, 2, 3: // GET (cached, uncached, or invalidated)
			src, port := diffClientAddr, diffClientPort
			if rng.Intn(2) == 1 {
				src, port = diffClient2, diffClient2Prt
			}
			frame := encodeFrame(t, diffServerAddr, src, netproto.Packet{Op: netproto.OpGet, Seq: seq, Key: key})
			switch rng.Intn(12) {
			case 0: // corrupt a byte: parser must drop it on both paths
				frame[rng.Intn(len(frame))] ^= 0x40
			case 1: // trailing junk: decodes as a GET all the same
				frame = append(frame, 0xEE)
				netproto.FinalizeFrame(frame)
			}
			r.feed(t, frame, port)
		case 4, 5: // PUT — invalidates a cached key in flight
			val := diffValue(i+rng.Intn(3), 1+rng.Intn(netproto.MaxValueSize))
			frame := encodeFrame(t, diffServerAddr, diffClientAddr,
				netproto.Packet{Op: netproto.OpPut, Seq: seq, Key: key, Value: val})
			r.feed(t, frame, diffClientPort)
		case 6: // DELETE
			frame := encodeFrame(t, diffServerAddr, diffClientAddr,
				netproto.Packet{Op: netproto.OpDelete, Seq: seq, Key: key})
			r.feed(t, frame, diffClientPort)
		case 7: // data-plane cache update, sometimes from a foreign port
			e := diffEntry(i)
			val := diffValue(i, len(e.Value))
			port := diffServerPort
			if rng.Intn(4) == 0 {
				port = diffClientPort // refused: ownership check
			}
			frame := encodeFrame(t, diffClientAddr, diffServerAddr,
				netproto.Packet{Op: netproto.OpCacheUpdate, Seq: seq, Key: key, Value: val})
			r.feed(t, frame, port)
		case 8: // driver churn: flip installation
			if installed[i] {
				r.remove(t, diffEntry(i))
			} else {
				r.install(t, diffEntry(i))
			}
			installed[i] = !installed[i]
		case 9, 10: // replies and replication: forwarded, never cache-handled
			frame, port := passFrame(t, uint64(rng.Intn(6)), seq, key)
			r.feed(t, frame, port)
		case 11: // trailing bytes or no route: both interpreted
			frame, port := oddFrame(t, uint64(rng.Intn(25)), seq, key)
			r.feed(t, frame, port)
		case 12: // a statistics refresh, so hot keys are reported again
			if rng.Intn(8) == 0 {
				r.resetStats(t)
			}
		}
	}
	r.assertSame(t, nKeys)
	if len(r.digests[r.fast]) == 0 {
		t.Fatal("no hot-key digest: the Bloom and hh_report stages never ran")
	}
}

// TestFastPathBailouts pins the zero-side-effect property of every bail-out:
// a packet the compiled paths decline leaves the fast switch in exactly the
// state of the interpreter-only switch, including the sampler stream (pinned
// through the per-key counters and the sketch on subsequent bursts of
// cached and uncached reads).
func TestFastPathBailouts(t *testing.T) {
	r := newDiffRig(t, diffConfig())
	e := diffEntry(0)
	r.install(t, e)

	get := encodeFrame(t, diffServerAddr, diffClientAddr,
		netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: e.Key})

	// Out-of-range input port: both must return an error, count nothing.
	r.feed(t, get, 99999)
	// Corrupted checksum on a cached key: probes hit, integrity fails.
	bad := append([]byte(nil), get...)
	bad[len(bad)-1] ^= 0x01
	r.feed(t, bad, diffClientPort)
	// Corrupted checksum on an uncached key and on a reply.
	cold := encodeFrame(t, diffServerAddr, diffClientAddr,
		netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: diffKey(1)})
	cold[len(cold)-1] ^= 0x01
	r.feed(t, cold, diffClientPort)
	reply, port := passFrame(t, 0, 1, diffKey(1))
	reply[len(reply)-1] ^= 0x01
	r.feed(t, reply, port)
	// GET for a key with no reply route: routing drops it at ingress.
	orphan := encodeFrame(t, diffServerAddr, diffUnrouted,
		netproto.Packet{Op: netproto.OpGet, Seq: 2, Key: e.Key})
	r.feed(t, orphan, diffClientPort)
	// Unrouted destinations and trailing bytes.
	for sel := uint64(0); sel < 5; sel++ {
		frame, port := oddFrame(t, sel, 3, diffKey(1))
		r.feed(t, frame, port)
	}
	// A CacheUpdate for an uncached key is acked by the deparser.
	r.feed(t, encodeFrame(t, diffClientAddr, diffServerAddr,
		netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 4, Key: diffKey(1), Value: []byte("u")}), diffServerPort)
	// Invalidated entry: a PUT clears the valid bit, then a GET falls
	// through to the server on both paths.
	put := encodeFrame(t, diffServerAddr, diffClientAddr,
		netproto.Packet{Op: netproto.OpPut, Seq: 3, Key: e.Key, Value: []byte("x")})
	r.feed(t, put, diffClientPort)
	r.feed(t, get, diffClientPort)
	// Reinstall and serve bursts: counter and sketch equality after them
	// prove none of the bail-outs above consumed a sampler roll on either
	// side.
	r.install(t, e)
	for i := 0; i < 64; i++ {
		for _, k := range []netproto.Key{e.Key, diffKey(1 + i%3)} {
			g := encodeFrame(t, diffServerAddr, diffClientAddr,
				netproto.Packet{Op: netproto.OpGet, Seq: uint64(10 + i), Key: k})
			r.feed(t, g, diffClientPort)
		}
	}
	r.assertSame(t, 4)
}

// TestFastPathConcurrentInvalidation hammers one fast-path switch with
// concurrent cached reads, writes and driver install/remove cycles. The
// assertions are the §4.3 invariants (a reply is either a complete
// consistent value or absent — never torn), with the race detector checking
// the locking discipline.
func TestFastPathConcurrentInvalidation(t *testing.T) {
	cfg := diffConfig()
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustInstall(t, sw.InstallRoute(diffClientAddr, diffClientPort))
	mustInstall(t, sw.InstallRoute(diffServerAddr, diffServerPort))

	const nKeys = 8
	for i := 0; i < nKeys; i++ {
		mustInstall(t, sw.InstallCacheEntry(diffEntry(i)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var out []dataplane.Emitted
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g + n) % nKeys
				pkt := netproto.Packet{Op: netproto.OpGet, Seq: uint64(n), Key: diffKey(i)}
				frame, _ := netproto.AppendFramePacket(nil, diffServerAddr, diffClientAddr, &pkt)
				out = out[:0]
				out, err := sw.ProcessAppend(frame, diffClientPort, out)
				if err != nil {
					t.Errorf("process: %v", err)
					return
				}
				for _, em := range out {
					if netproto.Op(em.Frame[frameOpOff]) != netproto.OpGetReply {
						continue
					}
					var fr netproto.Frame
					var rp netproto.Packet
					fr, err := netproto.DecodeFrame(em.Frame)
					if err == nil {
						err = netproto.Decode(fr.Payload, &rp)
					}
					if err != nil {
						t.Errorf("torn reply: %v", err)
						return
					}
					want := diffEntry(i).Value
					if !bytes.Equal(rp.Value, want) {
						t.Errorf("key %d: reply value %x, want %x", i, rp.Value, want)
						return
					}
					dataplane.ReleaseFrame(em)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // driver churn: remove/reinstall entries under traffic
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			e := diffEntry(n % nKeys)
			if _, err := sw.RemoveCacheEntry(e.Key, e.KeyIndex); err != nil {
				t.Errorf("remove: %v", err)
				return
			}
			if err := sw.InstallCacheEntry(e); err != nil {
				t.Errorf("install: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // write traffic: in-flight invalidations
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i := n % nKeys
			e := diffEntry(i)
			pkt := netproto.Packet{Op: netproto.OpPut, Seq: uint64(n), Key: diffKey(i), Value: e.Value}
			frame, _ := netproto.AppendFramePacket(nil, diffServerAddr, diffClientAddr, &pkt)
			out, err := sw.ProcessAppend(frame, diffClientPort, nil)
			if err != nil {
				t.Errorf("put: %v", err)
				return
			}
			for _, em := range out {
				dataplane.ReleaseFrame(em)
			}
			// Refresh through the data plane so the valid bit comes back.
			upd := netproto.Packet{Op: netproto.OpCacheUpdate, Seq: uint64(n), Key: diffKey(i), Value: e.Value}
			frame, _ = netproto.AppendFramePacket(nil, diffClientAddr, diffServerAddr, &upd)
			out, err = sw.ProcessAppend(frame, diffServerPort, nil)
			if err != nil {
				t.Errorf("update: %v", err)
				return
			}
			for _, em := range out {
				dataplane.ReleaseFrame(em)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		sw.ReadCounters([]int{i % nKeys})
	}
	close(stop)
	wg.Wait()
}

// FuzzFastPathDifferential feeds fuzz-shaped op streams to the differential
// pair: every byte pair of the input picks an operation and a key, and any
// divergence in emissions or final state fails.
func FuzzFastPathDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0x03, 0x10, 0x00})
	f.Add([]byte{0x20, 0x00, 0x61, 0x01, 0x00, 0x02, 0x83, 0x04})
	f.Add([]byte{0xFF, 0xFE, 0xFD, 0xFC, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x01, 0x09, 0x00, 0x00, 0x01})
	f.Add([]byte{0x07, 0x03, 0x08, 0x04, 0x07, 0x05, 0x08, 0x0A, 0x07, 0x14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			t.Skip()
		}
		r := newDiffRig(t, diffConfig())
		const nKeys = 8
		for i := 0; i < nKeys; i += 2 {
			r.install(t, diffEntry(i))
		}
		var seq uint64
		for p := 0; p+1 < len(data); p += 2 {
			op, sel := data[p], data[p+1]
			i := int(sel) % nKeys
			key := diffKey(i)
			seq++
			switch op % 10 {
			case 0:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpGet, Seq: seq, Key: key})
				r.feed(t, frame, diffClientPort)
			case 1:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpGet, Seq: seq, Key: key})
				frame[int(sel)%len(frame)] ^= 1 << (op % 8)
				r.feed(t, frame, diffClientPort)
			case 2:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpPut, Seq: seq, Key: key, Value: diffValue(i, 1+int(sel)%netproto.MaxValueSize)})
				r.feed(t, frame, diffClientPort)
			case 3:
				e := diffEntry(i)
				frame := encodeFrame(t, diffClientAddr, diffServerAddr,
					netproto.Packet{Op: netproto.OpCacheUpdate, Seq: seq, Key: key, Value: diffValue(i, len(e.Value))})
				r.feed(t, frame, diffServerPort)
			case 4:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpDelete, Seq: seq, Key: key})
				r.feed(t, frame, diffClientPort)
			case 5:
				r.remove(t, diffEntry(i))
			case 6:
				r.install(t, diffEntry(i))
			case 7:
				frame, port := passFrame(t, uint64(sel/nKeys), seq, key)
				r.feed(t, frame, port)
			case 8:
				frame, port := oddFrame(t, uint64(sel/nKeys), seq, key)
				r.feed(t, frame, port)
			case 9:
				r.resetStats(t)
			}
		}
		r.assertSame(t, nKeys)
	})
}

// benchTraversals runs one benchmark case as "fastpath", through the switch
// entry point, and as "interpreter", through the table interpreter alone.
func benchTraversals(b *testing.B, sw func(b *testing.B) *Switch, frames [][]byte, inPort, resetEvery int) {
	for _, name := range []string{"fastpath", "interpreter"} {
		b.Run(name, func(b *testing.B) {
			s := sw(b)
			process := s.ProcessAppend
			if name == "interpreter" {
				process = s.Pipeline().ProcessAppend
			}
			benchProcess(b, s, process, frames, inPort, resetEvery)
		})
	}
}

// benchEntry is the cached key of the cached-key benchmarks: a 128-byte
// value across all eight value arrays, owned by the server on
// diffServerPort.
func benchEntry() CacheEntry {
	e := diffEntry(1)
	e.Value = diffValue(1, 128)
	e.Placement = cachemem.Placement{Bitmap: 0xFF, Index: 1, Size: 128}
	return e
}

// benchCachedSwitch is a TestConfig switch with the client and server
// routes and benchEntry installed.
func benchCachedSwitch(b *testing.B) *Switch {
	sw, err := New(TestConfig())
	if err != nil {
		b.Fatal(err)
	}
	mustInstall(b, sw.InstallRoute(diffClientAddr, diffClientPort))
	mustInstall(b, sw.InstallRoute(diffServerAddr, diffServerPort))
	mustInstall(b, sw.InstallCacheEntry(benchEntry()))
	return sw
}

// BenchmarkFastPathCachedGet measures a valid cached read through the full
// switch entry point and through the table interpreter alone — the headline
// number of the read-path optimization.
func BenchmarkFastPathCachedGet(b *testing.B) {
	frame := encodeFrame(b, diffServerAddr, diffClientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: benchEntry().Key})
	benchTraversals(b, benchCachedSwitch, [][]byte{frame}, diffClientPort, 0)
}

// BenchmarkCachedWritePasses measures the two passes of a write to a cached
// key, through the switch entry point and through the table interpreter
// alone. The compiled paths decline both, so both run in the interpreter:
//   - put is a client's Put entering on the client port: the invalidation,
//     forwarded to the owner as PutCached;
//   - update is the owner's CacheUpdate entering on the server port: the
//     refresh that rewrites the value and validates the entry. Its
//     sequence numbers step by 2^30, so under the serial-number version
//     guard each frame is newer than the one before and is applied.
func BenchmarkCachedWritePasses(b *testing.B) {
	e := benchEntry()
	put := encodeFrame(b, diffServerAddr, diffClientAddr,
		netproto.Packet{Op: netproto.OpPut, Seq: 1, Key: e.Key, Value: e.Value})
	updates := make([][]byte, 4)
	for i := range updates {
		updates[i] = encodeFrame(b, diffClientAddr, diffServerAddr,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: uint64(i+1) << 30, Key: e.Key, Value: e.Value})
	}
	b.Run("put", func(b *testing.B) { benchTraversals(b, benchCachedSwitch, [][]byte{put}, diffClientPort, 0) })
	b.Run("update", func(b *testing.B) { benchTraversals(b, benchCachedSwitch, updates, diffServerPort, 0) })
}

// BenchmarkFastPathForward measures the two forwarded passes of an uncached
// Get, through the switch entry point and through the table interpreter
// alone, on benchSwitch (0.25 sample rate):
//   - miss cycles Gets over 4096 uncached keys, clearing the sketch every
//     20,000 frames like the benchmark's controller cadence, so a key
//     seldom turns hot and the miss is the one a workload sends: sample,
//     sketch and threshold stages, rarely the Bloom filter;
//   - reply is a server's 128-byte GetReply entering on the server port
//     and routed on to the client: the pass that needs only the routing
//     tables;
//   - ports2 runs both at once through the entry point, miss on one
//     goroutine and reply on another, b.N frames each, so ns/op is the
//     wall time of a frame on each port: what the compiled paths' counters
//     cost when two cores forward.
func BenchmarkFastPathForward(b *testing.B) {
	misses := make([][]byte, 4096)
	for i := range misses {
		key := netproto.KeyFromString(fmt.Sprintf("absent-%d", i))
		misses[i] = encodeFrame(b, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
	}
	reply := encodeFrame(b, clientAddr, serverAddr, netproto.Packet{
		Op: netproto.OpGetReply, Key: netproto.KeyFromString("absent"), Value: make([]byte, 128),
	})
	b.Run("miss", func(b *testing.B) { benchTraversals(b, benchSwitch, misses, clientPort, 20_000) })
	b.Run("reply", func(b *testing.B) { benchTraversals(b, benchSwitch, [][]byte{reply}, serverPort, 0) })
	b.Run("ports2", func(b *testing.B) {
		sw := benchSwitch(b)
		var wg sync.WaitGroup
		b.ResetTimer()
		for _, in := range []struct {
			frames [][]byte
			port   int
		}{{misses, clientPort}, {[][]byte{reply}, serverPort}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]dataplane.Emitted, 0, 1)
				for i := 0; i < b.N; i++ {
					var err error
					out, err = sw.ProcessAppend(in.frames[i%len(in.frames)], in.port, out[:0])
					if err != nil || len(out) != 1 {
						b.Errorf("ProcessAppend = %v, %v", out, err)
						return
					}
					dataplane.ReleaseFrame(out[0])
				}
			}()
		}
		wg.Wait()
	})
}
