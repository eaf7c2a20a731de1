package switchcore

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"netcache/internal/cachemem"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
)

// The differential harness: the same configuration, traffic and driver
// operations applied to a fast-path switch and an interpreter-only switch
// must be indistinguishable — byte-identical emissions on every packet,
// identical pipeline and per-table counters, identical register state for
// the cached keys. SampleRate sits strictly between 0 and 1 so both the
// sampled and unsampled commit paths run, and counter equality at the end
// proves the two switches' sampler RNG streams never diverged.

const (
	diffClientAddr netproto.Addr = 100
	diffClient2    netproto.Addr = 101
	diffServerAddr netproto.Addr = 200
	diffClientPort               = 2
	diffClient2Prt               = 3
	diffServerPort               = 1
)

func diffConfig() Config {
	cfg := TestConfig()
	cfg.SampleRate = 0.5
	cfg.SampleSeed = 7
	return cfg
}

// diffPair builds the two switches and provisions identical routes. Frames
// reach interp through its table interpreter (see feedBoth).
func diffPair(t testing.TB, cfg Config) (fast, interp *Switch) {
	t.Helper()
	var err error
	if fast, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if interp, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	for _, sw := range []*Switch{fast, interp} {
		mustInstall(t, sw.InstallRoute(diffClientAddr, diffClientPort))
		mustInstall(t, sw.InstallRoute(diffClient2, diffClient2Prt))
		mustInstall(t, sw.InstallRoute(diffServerAddr, diffServerPort))
	}
	return fast, interp
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

// feedBoth sends one frame through fast's entry point and interp's table
// interpreter and requires identical emissions and errors.
func feedBoth(t testing.TB, fast, interp *Switch, frame []byte, inPort int) {
	t.Helper()
	fe, ferr := fast.Process(frame, inPort)
	ie, ierr := interp.Pipeline().ProcessAppend(frame, inPort, nil)
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

// assertSameState compares everything observable after the streams quiesce.
func assertSameState(t testing.TB, fast, interp *Switch, nKeys int) {
	t.Helper()
	fs, is := fast.pl.Stats(), interp.pl.Stats()
	if !reflect.DeepEqual(fs, is) {
		t.Fatalf("pipeline counter divergence:\nfast:   %+v\ninterp: %+v", fs, is)
	}
	type tc struct {
		name         string
		hits, misses uint64
	}
	counts := func(sw *Switch) []tc {
		ts := []*dataplane.Table{
			sw.lookup, sw.prep, sw.route, sw.sampleT,
			sw.statusT, sw.vlenT, sw.ctrT, sw.mirrorT,
		}
		ts = append(ts, sw.valueT...)
		out := make([]tc, len(ts))
		for i, tb := range ts {
			out[i] = tc{tb.Name(), tb.Hits(), tb.Misses()}
		}
		return out
	}
	fc, ic := counts(fast), counts(interp)
	for i := range fc {
		if fc[i] != ic[i] {
			t.Fatalf("table %q counter divergence: fast=%+v interp=%+v", fc[i].name, fc[i], ic[i])
		}
	}
	if fi, ii := fast.invalidations.Load(), interp.invalidations.Load(); fi != ii {
		t.Fatalf("invalidation divergence: fast=%d interp=%d", fi, ii)
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
}

// TestFastPathDifferential drives a randomized op stream — cached and
// uncached reads, writes, data-plane updates (owned and foreign ports),
// installs/evicts, corrupted and junk-extended frames — through both
// switches and requires equality packet by packet and in the final state.
func TestFastPathDifferential(t *testing.T) {
	fast, interp := diffPair(t, diffConfig())
	defer fast.Close()
	defer interp.Close()

	const nKeys = 24
	installed := make([]bool, nKeys)
	install := func(i int) {
		e := diffEntry(i)
		mustInstall(t, fast.InstallCacheEntry(e))
		mustInstall(t, interp.InstallCacheEntry(e))
		installed[i] = true
	}
	remove := func(i int) {
		e := diffEntry(i)
		if _, err := fast.RemoveCacheEntry(e.Key, e.KeyIndex); err != nil {
			t.Fatal(err)
		}
		if _, err := interp.RemoveCacheEntry(e.Key, e.KeyIndex); err != nil {
			t.Fatal(err)
		}
		installed[i] = false
	}
	for i := 0; i < nKeys/2; i++ {
		install(i)
	}

	rng := rand.New(rand.NewSource(0xD1FF))
	var seq uint64
	for step := 0; step < 4000; step++ {
		i := rng.Intn(nKeys)
		key := diffKey(i)
		seq++
		switch op := rng.Intn(10); op {
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
			feedBoth(t, fast, interp, frame, port)
		case 4, 5: // PUT — invalidates a cached key in flight
			val := diffValue(i+rng.Intn(3), 1+rng.Intn(netproto.MaxValueSize))
			frame := encodeFrame(t, diffServerAddr, diffClientAddr,
				netproto.Packet{Op: netproto.OpPut, Seq: seq, Key: key, Value: val})
			feedBoth(t, fast, interp, frame, diffClientPort)
		case 6: // DELETE
			frame := encodeFrame(t, diffServerAddr, diffClientAddr,
				netproto.Packet{Op: netproto.OpDelete, Seq: seq, Key: key})
			feedBoth(t, fast, interp, frame, diffClientPort)
		case 7: // data-plane cache update, sometimes from a foreign port
			e := diffEntry(i)
			val := diffValue(i, len(e.Value))
			port := diffServerPort
			if rng.Intn(4) == 0 {
				port = diffClientPort // refused: ownership check
			}
			frame := encodeFrame(t, diffClientAddr, diffServerAddr,
				netproto.Packet{Op: netproto.OpCacheUpdate, Seq: seq, Key: key, Value: val})
			feedBoth(t, fast, interp, frame, port)
		case 8: // driver churn: flip installation
			if installed[i] {
				remove(i)
			} else {
				install(i)
			}
		case 9: // reply passthrough traffic (never cache-handled)
			frame := encodeFrame(t, diffClientAddr, diffServerAddr,
				netproto.Packet{Op: netproto.OpGetReply, Seq: seq, Key: key, Value: diffValue(i, 8)})
			feedBoth(t, fast, interp, frame, diffServerPort)
		}
	}
	fast.SyncDigests()
	interp.SyncDigests()
	assertSameState(t, fast, interp, nKeys)
}

// TestFastPathBailouts pins the zero-side-effect property of every bail-out:
// a packet the fast path declines leaves the fast switch in exactly the
// state of the interpreter-only switch, including the sampler stream (pinned
// through the per-key counters on a subsequent burst of cached reads).
func TestFastPathBailouts(t *testing.T) {
	fast, interp := diffPair(t, diffConfig())
	defer fast.Close()
	defer interp.Close()
	e := diffEntry(0)
	mustInstall(t, fast.InstallCacheEntry(e))
	mustInstall(t, interp.InstallCacheEntry(e))

	get := encodeFrame(t, diffServerAddr, diffClientAddr,
		netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: e.Key})

	// Out-of-range input port: both must return an error, count nothing.
	feedBoth(t, fast, interp, get, 99999)
	// Corrupted checksum on a cached key: probes hit, integrity fails.
	bad := append([]byte(nil), get...)
	bad[len(bad)-1] ^= 0x01
	feedBoth(t, fast, interp, bad, diffClientPort)
	// GET for a key with no reply route: routing drops it at ingress.
	orphan := encodeFrame(t, diffServerAddr, 999,
		netproto.Packet{Op: netproto.OpGet, Seq: 2, Key: e.Key})
	feedBoth(t, fast, interp, orphan, diffClientPort)
	// Invalidated entry: a PUT clears the valid bit, then a GET falls
	// through to the server on both paths.
	put := encodeFrame(t, diffServerAddr, diffClientAddr,
		netproto.Packet{Op: netproto.OpPut, Seq: 3, Key: e.Key, Value: []byte("x")})
	feedBoth(t, fast, interp, put, diffClientPort)
	feedBoth(t, fast, interp, get, diffClientPort)
	// Reinstall and serve a burst: counter equality after the burst proves
	// none of the bail-outs above consumed a sampler roll on either side.
	mustInstall(t, fast.InstallCacheEntry(e))
	mustInstall(t, interp.InstallCacheEntry(e))
	for i := 0; i < 64; i++ {
		g := encodeFrame(t, diffServerAddr, diffClientAddr,
			netproto.Packet{Op: netproto.OpGet, Seq: uint64(10 + i), Key: e.Key})
		feedBoth(t, fast, interp, g, diffClientPort)
	}
	assertSameState(t, fast, interp, 1)
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
	defer sw.Close()
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
			out, err := sw.Process(frame, diffClientPort)
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
			out, err = sw.Process(frame, diffServerPort)
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
// divergence in emissions or final counters fails.
func FuzzFastPathDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0x03, 0x10, 0x00})
	f.Add([]byte{0x20, 0x00, 0x61, 0x01, 0x00, 0x02, 0x83, 0x04})
	f.Add([]byte{0xFF, 0xFE, 0xFD, 0xFC, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			t.Skip()
		}
		fast, interp := diffPair(t, diffConfig())
		defer fast.Close()
		defer interp.Close()
		const nKeys = 8
		for i := 0; i < nKeys; i += 2 {
			e := diffEntry(i)
			mustInstall(t, fast.InstallCacheEntry(e))
			mustInstall(t, interp.InstallCacheEntry(e))
		}
		var seq uint64
		for p := 0; p+1 < len(data); p += 2 {
			op, sel := data[p], data[p+1]
			i := int(sel) % nKeys
			key := diffKey(i)
			seq++
			switch op % 7 {
			case 0:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpGet, Seq: seq, Key: key})
				feedBoth(t, fast, interp, frame, diffClientPort)
			case 1:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpGet, Seq: seq, Key: key})
				frame[int(sel)%len(frame)] ^= 1 << (op % 8)
				feedBoth(t, fast, interp, frame, diffClientPort)
			case 2:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpPut, Seq: seq, Key: key, Value: diffValue(i, 1+int(sel)%netproto.MaxValueSize)})
				feedBoth(t, fast, interp, frame, diffClientPort)
			case 3:
				e := diffEntry(i)
				frame := encodeFrame(t, diffClientAddr, diffServerAddr,
					netproto.Packet{Op: netproto.OpCacheUpdate, Seq: seq, Key: key, Value: diffValue(i, len(e.Value))})
				feedBoth(t, fast, interp, frame, diffServerPort)
			case 4:
				frame := encodeFrame(t, diffServerAddr, diffClientAddr,
					netproto.Packet{Op: netproto.OpDelete, Seq: seq, Key: key})
				feedBoth(t, fast, interp, frame, diffClientPort)
			case 5:
				e := diffEntry(i)
				if _, err := fast.RemoveCacheEntry(e.Key, e.KeyIndex); err != nil {
					t.Fatal(err)
				}
				if _, err := interp.RemoveCacheEntry(e.Key, e.KeyIndex); err != nil {
					t.Fatal(err)
				}
			case 6:
				e := diffEntry(i)
				mustInstall(t, fast.InstallCacheEntry(e))
				mustInstall(t, interp.InstallCacheEntry(e))
			}
		}
		fast.SyncDigests()
		interp.SyncDigests()
		assertSameState(t, fast, interp, nKeys)
	})
}

// BenchmarkFastPathCachedGet measures a valid cached read through the full
// switch entry point and through the table interpreter alone — the headline
// number of the read-path optimization.
func BenchmarkFastPathCachedGet(b *testing.B) {
	for _, interpreter := range []bool{false, true} {
		name := "fastpath"
		if interpreter {
			name = "interpreter"
		}
		b.Run(name, func(b *testing.B) {
			sw, err := New(TestConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer sw.Close()
			process := sw.ProcessAppend
			if interpreter {
				process = sw.Pipeline().ProcessAppend
			}
			mustInstall(b, sw.InstallRoute(diffClientAddr, diffClientPort))
			mustInstall(b, sw.InstallRoute(diffServerAddr, diffServerPort))
			e := diffEntry(1)
			e.Value = diffValue(1, 128)
			e.Placement = cachemem.Placement{Bitmap: 0xFF, Index: 1, Size: 128}
			mustInstall(b, sw.InstallCacheEntry(e))
			pkt := netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: e.Key}
			frame, err := netproto.AppendFramePacket(nil, diffServerAddr, diffClientAddr, &pkt)
			if err != nil {
				b.Fatal(err)
			}
			var out []dataplane.Emitted
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = out[:0]
				out, err = process(frame, diffClientPort, out)
				if err != nil {
					b.Fatal(err)
				}
				for _, em := range out {
					dataplane.ReleaseFrame(em)
				}
			}
		})
	}
}
