package udptrans

// The burst contract: what Endpoint.Send does inside and outside a dispatch,
// and what a window-1 exchange costs in datagrams. Peers that must stay
// silent are plain sockets, so every datagram on them is one the code under
// test wrote. Nothing here sleeps: reads block until the datagram is there
// (a deadline only turns a hang into a failure).

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netcache/internal/netproto"
	"netcache/internal/workload"
)

// rawPeer is a bare loopback socket: the "switch" an Endpoint under test is
// dialed to, or a peer of the daemon that never answers.
type rawPeer struct {
	t    *testing.T
	conn *net.UDPConn
}

func listenRaw(t *testing.T) rawPeer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return rawPeer{t, conn}
}

func (p rawPeer) addr() netip.AddrPort {
	return p.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// dial returns an Endpoint aimed at p.
func (p rawPeer) dial() *Endpoint {
	p.t.Helper()
	ep, err := Dial(p.addr().String())
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(ep.Close)
	return ep
}

// poke sends one datagram to ep's socket, as the switch would.
func (p rawPeer) poke(ep *Endpoint, datagram []byte) {
	p.t.Helper()
	to := ep.b.conn.LocalAddr().(*net.UDPAddr).AddrPort()
	if _, err := p.conn.WriteToUDPAddrPort(datagram, to); err != nil {
		p.t.Fatal(err)
	}
}

// read returns the next datagram and the frames in it.
func (p rawPeer) read() (datagram []byte, frames [][]byte) {
	p.t.Helper()
	buf := make([]byte, maxDatagram+1)
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, _, err := p.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		p.t.Fatalf("no datagram: %v", err)
	}
	datagram = buf[:n]
	if !splitBatch(datagram, func(f []byte) { frames = append(frames, f) }) {
		frames = [][]byte{datagram}
	}
	return datagram, frames
}

func TestSendsInsideDispatchLeaveAsBatches(t *testing.T) {
	// 100 replies of 150 bytes are 15 KB: they must spill over several
	// datagrams, each as full as the bound allows, in order, none lost.
	const n, size = 100, 150
	perDatagram := (maxDatagram - batchHeaderSize) / (2 + size)
	want := (n + perDatagram - 1) / perDatagram

	sw := listenRaw(t)
	ep := sw.dial()
	go ep.Run(func([]byte) {
		f := make([]byte, size) // reused, as the server reuses its pooled reply
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint32(f, uint32(i))
			ep.Send(f)
		}
	})
	sw.poke(ep, []byte("go"))

	next := 0
	for dg := 0; next < n; dg++ {
		datagram, frames := sw.read()
		if len(datagram) > maxDatagram {
			t.Fatalf("datagram %d is %d bytes", dg, len(datagram))
		}
		if next+len(frames) < n && len(frames) != perDatagram {
			t.Errorf("datagram %d carries %d frames, room for %d", dg, len(frames), perDatagram)
		}
		for _, f := range frames {
			if len(f) != size || binary.BigEndian.Uint32(f) != uint32(next) {
				t.Fatalf("frame %d arrived as %d bytes numbered %d", next, len(f), binary.BigEndian.Uint32(f))
			}
			next++
		}
	}
	c := ep.Counters()
	if got := c.TxDatagrams.Value(); got != uint64(want) {
		t.Errorf("tx_datagrams = %d, want %d", got, want)
	}
	if c.TxFrames.Value() != n || c.RxDatagrams.Value() != 1 || c.RxFrames.Value() != 1 || c.Bursts.Value() != 1 {
		t.Errorf("counters = tx_frames %d rx_datagrams %d rx_frames %d bursts %d, want %d 1 1 1",
			c.TxFrames.Value(), c.RxDatagrams.Value(), c.RxFrames.Value(), c.Bursts.Value(), n)
	}
}

func TestSendOutsideDispatchIsOnTheWireWhenItReturns(t *testing.T) {
	// No Run on this endpoint: nothing but Send itself can have written.
	sw := listenRaw(t)
	ep := sw.dial()
	ep.Send([]byte("alone"))
	if datagram, _ := sw.read(); !bytes.Equal(datagram, []byte("alone")) {
		t.Errorf("Send wrote %q, want the bare frame", datagram)
	}
	ep.SendBatch([][]byte{[]byte("a"), []byte("bb"), []byte("ccc")})
	if _, frames := sw.read(); len(frames) != 3 || string(frames[2]) != "ccc" {
		t.Errorf("SendBatch wrote %q, want one datagram of three frames", frames)
	}
	if c := ep.Counters(); c.TxDatagrams.Value() != 2 || c.TxFrames.Value() != 4 {
		t.Errorf("tx_datagrams %d tx_frames %d, want 2 and 4", c.TxDatagrams.Value(), c.TxFrames.Value())
	}
}

// TestSendCopiesBeforeItReturns: the server recycles its pooled reply the
// moment Send returns, while a Send inside a dispatch is only written after
// the callback has seen the datagram's last frame. Checked by mutation: with
// send keeping the caller's slices until the flush, both frames arrive as
// 0xEE and this test fails.
func TestSendCopiesBeforeItReturns(t *testing.T) {
	sw := listenRaw(t)
	ep := sw.dial()
	go ep.Run(func([]byte) {
		for _, s := range []string{"first reply", "second reply"} {
			f := []byte(s)
			ep.Send(f)
			for i := range f {
				f[i] = 0xEE
			}
		}
	})
	sw.poke(ep, []byte("go"))
	_, frames := sw.read()
	if len(frames) != 2 || string(frames[0]) != "first reply" || string(frames[1]) != "second reply" {
		t.Errorf("frames = %q", frames)
	}
}

func TestForeignSendRacingDispatchIsNeitherLostNorDuplicated(t *testing.T) {
	// Every poke makes the Run callback send perPoke frames while another
	// goroutine (a retransmit timer, the hello ticker) sends its own. Each
	// frame is numbered; each number must arrive exactly once.
	const pokes, perPoke, foreign = 200, 4, 400
	const total = pokes*perPoke + foreign
	sw := listenRaw(t)
	ep := sw.dial()
	go ep.Run(func(frame []byte) {
		var f [4]byte
		for j := 0; j < perPoke; j++ {
			binary.BigEndian.PutUint32(f[:], binary.BigEndian.Uint32(frame)*perPoke+uint32(j))
			ep.Send(f[:])
		}
	})

	// Senders stay within a window of what the collector has read, so no
	// socket buffer can overflow and drop (which would look like a loss).
	var sent, received atomic.Int64
	pace := func(n int64) {
		for s := sent.Add(n); s-received.Load() > 128; {
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var f [4]byte
		for i := 0; i < pokes; i++ {
			binary.BigEndian.PutUint32(f[:], uint32(i))
			sw.poke(ep, f[:])
			pace(perPoke)
		}
	}()
	go func() {
		defer wg.Done()
		var f [4]byte
		for i := 0; i < foreign; i++ {
			binary.BigEndian.PutUint32(f[:], uint32(pokes*perPoke+i))
			ep.Send(f[:])
			pace(1)
		}
	}()

	seen := make([]int, total)
	for got := 0; got < total; {
		_, frames := sw.read()
		for _, f := range frames {
			seen[binary.BigEndian.Uint32(f)]++
		}
		got += len(frames)
		received.Store(int64(got))
	}
	wg.Wait()
	for id, n := range seen {
		if n != 1 {
			t.Errorf("frame %d arrived %d times", id, n)
		}
	}
	if c := ep.Counters(); c.TxFrames.Value() != total || c.RxFrames.Value() != pokes {
		t.Errorf("tx_frames %d rx_frames %d, want %d and %d", c.TxFrames.Value(), c.RxFrames.Value(), total, pokes)
	}
}

// await spins until cond holds: waiting on an event, with a bound.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestWindow1GetCostsOneDatagramPerLeg(t *testing.T) {
	// The udp.zipf99_open20k guard as a count: batching must never hold a
	// lone frame back or split it. A miss is client → switch → server →
	// switch → client, a hit client → switch → client; the daemon's counters
	// see every leg.
	dep := deploy(t, 1, time.Hour)
	// The server's Hello is echoed back to it; once that has arrived nothing
	// is in flight.
	await(t, "the hello echo", func() bool { return dep.eps[0].Counters().RxDatagrams.Value() == 1 })
	key := workload.KeyName(1)
	if err := dep.cli.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	c := &dep.daemon.counters
	legs := func(get func()) (rx, tx uint64) {
		rx, tx = c.RxDatagrams.Value(), c.TxDatagrams.Value()
		get()
		return c.RxDatagrams.Value() - rx, c.TxDatagrams.Value() - tx
	}
	get := func() {
		if v, err := dep.cli.Get(key); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	}
	if rx, tx := legs(get); rx != 2 || tx != 2 {
		t.Errorf("miss: daemon read %d and wrote %d datagrams, want 2 and 2", rx, tx)
	}
	if err := dep.daemon.Controller().InsertKey(key); err != nil {
		t.Fatal(err)
	}
	gets := dep.servers[0].Metrics.Gets.Value()
	if rx, tx := legs(get); rx != 1 || tx != 1 {
		t.Errorf("hit: daemon read %d and wrote %d datagrams, want 1 and 1", rx, tx)
	}
	if dep.servers[0].Metrics.Gets.Value() != gets {
		t.Error("the cached Get reached the server")
	}
	if c.Bursts.Value() != c.RxDatagrams.Value() || c.UnlearnedDrops.Value() != 0 {
		t.Errorf("bursts %d rx_datagrams %d unlearned_drops %d", c.Bursts.Value(), c.RxDatagrams.Value(), c.UnlearnedDrops.Value())
	}
	if ret := dep.cli.Metrics.Retransmit.Value(); ret != 0 {
		t.Errorf("%d retransmits: the counts above include them", ret)
	}
}

// getBatch builds the datagram a window-wide client burst arrives as: n Gets
// from src, the i'th for keys[i] at home[i].
func getBatch(t *testing.T, src netproto.Addr, keys []netproto.Key, home []netproto.Addr) []byte {
	t.Helper()
	var datagram []byte
	w := batchWriter{buf: make([]byte, 0, maxDatagram), write: func(dg []byte, _ int) {
		if datagram != nil {
			t.Fatal("the Gets do not fit one datagram")
		}
		datagram = append(datagram, dg...)
	}}
	for i, k := range keys {
		f, err := netproto.AppendFramePacket(nil, home[i], src, &netproto.Packet{Op: netproto.OpGet, Seq: uint64(i + 1), Key: k})
		if err != nil {
			t.Fatal(err)
		}
		w.add(f)
	}
	w.flush()
	return datagram
}

// burstFixture is a served daemon with half of 32 keys cached, a detached
// worker of it, and two silent peers the worker has learned: a client and a
// server that owns the uncached half. Dispatching the returned datagram on
// the worker is everything the daemon does for a 32-Get window — learn,
// pipeline, hit replies to one destination, forwarded misses to another,
// both written to their sockets — with nobody answering.
func burstFixture(t *testing.T) (w *worker, datagram []byte, from netip.AddrPort) {
	t.Helper()
	const cliAddr, fakeSrv = netproto.Addr(0x8002), netproto.Addr(3)
	dep := deploy(t, 1, time.Hour)
	keys := make([]netproto.Key, 32)
	home := make([]netproto.Addr, 32)
	for i := range keys {
		keys[i], home[i] = workload.KeyName(i), fakeSrv
		if i%2 == 0 {
			home[i] = 1
			if err := dep.cli.Put(keys[i], workload.ValueFor(i, 128)); err != nil {
				t.Fatal(err)
			}
			if err := dep.daemon.Controller().InsertKey(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	w = dep.daemon.newWorker()
	cli, srv := listenRaw(t), listenRaw(t)
	w.b.dispatch(netproto.MarshalFrame(fakeSrv, fakeSrv, []byte("hello")), srv.addr(), w.handle)
	w.b.dispatch(netproto.MarshalFrame(cliAddr, cliAddr, []byte("hello")), cli.addr(), w.handle)
	return w, getBatch(t, cliAddr, keys, home), cli.addr()
}

func TestBurstOf32GetsCostsOneReadThreeWrites(t *testing.T) {
	// 16 hit replies of 128-byte values need two datagrams, 16 forwarded
	// Gets fit one: the window costs the daemon 1 read and 3 writes.
	w, datagram, from := burstFixture(t)
	c := &w.d.counters
	rx, txF, tx := c.RxDatagrams.Value(), c.TxFrames.Value(), c.TxDatagrams.Value()
	w.b.dispatch(datagram, from, w.handle)
	if rx, txF, tx = c.RxDatagrams.Value()-rx, c.TxFrames.Value()-txF, c.TxDatagrams.Value()-tx; rx != 1 || txF != 32 || tx != 3 {
		t.Errorf("rx_datagrams %d tx_frames %d tx_datagrams %d, want 1 32 3", rx, txF, tx)
	}
	if ld := w.d.ServerLoadOf(3); ld == nil || ld.Gets.Value() != 16 {
		t.Errorf("forwarded Gets counted = %+v, want 16", ld)
	}
}
