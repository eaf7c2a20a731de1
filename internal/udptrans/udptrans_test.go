package udptrans

// Integration tests: the full NetCache deployment — switch daemon, storage
// servers, client — as separate goroutines over real loopback UDP sockets,
// exactly what cmd/netcache-{switch,server,client} run as processes.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"netcache/internal/balance"
	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/server"
	"netcache/internal/stats"
	"netcache/internal/workload"
)

// deployment is a switch daemon plus n servers plus one client, all over
// loopback UDP.
type deployment struct {
	daemon  *SwitchDaemon
	servers []*server.Server
	cli     *client.Client
	eps     []*Endpoint
}

func deploy(t *testing.T, nServers int, cycle time.Duration) *deployment {
	t.Helper()
	return deployCfg(t, nServers, SwitchConfig{
		Listen:        "127.0.0.1:0",
		CacheCapacity: 64,
		Cycle:         cycle,
	})
}

func deployCfg(t *testing.T, nServers int, cfg SwitchConfig) *deployment {
	t.Helper()
	d, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	t.Cleanup(d.Close)
	return attach(t, d, nServers)
}

// attach hangs n servers and one client off a running daemon.
func attach(t *testing.T, d *SwitchDaemon, nServers int) *deployment {
	t.Helper()
	swAddr := d.Addr().String()
	dep := &deployment{daemon: d}
	addrs := make([]netproto.Addr, nServers)
	for i := 0; i < nServers; i++ {
		addr := netproto.Addr(i + 1)
		addrs[i] = addr
		srv := server.New(server.Config{Addr: addr, Shards: 2})
		ep, err := Dial(swAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		srv.SetSend(ep.Send)
		go ep.Run(srv.Receive)
		ep.Hello(addr)
		dep.servers = append(dep.servers, srv)
		dep.eps = append(dep.eps, ep)
	}

	cep, err := Dial(swAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cep.Close)
	cli, err := client.New(client.Config{
		Addr:      netproto.Addr(0x8001),
		Partition: client.HashPartitioner(addrs),
		Timeout:   100 * time.Millisecond,
		Retries:   5,
		// These deployment tests assert wall-clock patience windows (e.g.
		// a Put outlasting a 300ms §4.3 write-block) rather than loss
		// recovery, so they pin every attempt at 100ms: a floor equal to
		// Timeout is also the cap. At the default 200µs floor the doubling
		// schedule would exhaust the retry budget in a few milliseconds.
		Policy: client.Policy{RTOFloor: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.SetSend(cep.Send)
	go cep.Run(cli.Receive)
	dep.cli = cli
	dep.eps = append(dep.eps, cep)
	return dep
}

func (d *deployment) serverOf(key netproto.Key) *server.Server {
	return d.servers[client.PartitionOf(key, len(d.servers))]
}

func TestUDPEndToEndCRUD(t *testing.T) {
	dep := deploy(t, 2, time.Hour) // controller idle
	key := netproto.KeyFromString("user:1")

	if _, err := dep.cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("absent Get: %v", err)
	}
	if err := dep.cli.Put(key, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, err := dep.cli.Get(key)
	if err != nil || string(v) != "alice" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := dep.cli.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("Get after delete: %v", err)
	}
}

func TestUDPHotKeyCachedByDaemonController(t *testing.T) {
	dep := deploy(t, 2, 50*time.Millisecond)
	key := workload.KeyName(7)
	value := workload.ValueFor(7, 48)
	if err := dep.cli.Put(key, value); err != nil {
		t.Fatal(err)
	}

	// Hammer the key past the hot threshold and wait for a controller
	// cycle to cache it.
	deadline := time.Now().Add(5 * time.Second)
	for !dep.daemon.Controller().Cached(key) {
		if time.Now().After(deadline) {
			t.Fatal("daemon controller never cached the hot key")
		}
		if _, err := dep.cli.Get(key); err != nil {
			t.Fatal(err)
		}
	}

	// Served by the switch now: the server's Get counter freezes.
	srv := dep.serverOf(key)
	gets := srv.Metrics.Gets.Value()
	for i := 0; i < 10; i++ {
		v, err := dep.cli.Get(key)
		if err != nil || !bytes.Equal(v, value) {
			t.Fatalf("cached Get = %v, %v", v, err)
		}
	}
	if after := srv.Metrics.Gets.Value(); after != gets {
		t.Errorf("server saw %d reads of a cached key", after-gets)
	}
}

func TestUDPCoherentWriteToCachedKey(t *testing.T) {
	dep := deploy(t, 2, 50*time.Millisecond)
	key := workload.KeyName(3)
	if err := dep.cli.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !dep.daemon.Controller().Cached(key) {
		if time.Now().After(deadline) {
			t.Fatal("key never cached")
		}
		dep.cli.Get(key)
	}
	// Write through the cached key, then read: must be the new value,
	// served by the switch after the data-plane refresh.
	if err := dep.cli.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, err := dep.cli.Get(key)
	if err != nil || string(v) != "v2" {
		t.Fatalf("post-write Get = %q, %v", v, err)
	}
	srv := dep.serverOf(key)
	if srv.Metrics.CacheUpdatesSent.Value() == 0 {
		t.Error("server never refreshed the switch over UDP")
	}
}

// TestUDPCachedKeyServedAfterWrite: the daemon's controller installs a key
// at its store version, so the data-plane refresh a write triggers (which
// carries the next version) passes the switch's version guard and reads
// are served by the switch again.
func TestUDPCachedKeyServedAfterWrite(t *testing.T) {
	dep := deploy(t, 1, 50*time.Millisecond)
	key := workload.KeyName(5)
	if err := dep.cli.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !dep.daemon.Controller().Cached(key) {
		if time.Now().After(deadline) {
			t.Fatal("key never cached")
		}
		dep.cli.Get(key)
	}
	if err := dep.cli.Put(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// The client is acked before the refresh lands, so allow it a moment.
	srv := dep.servers[0]
	for reads := 1; ; reads++ {
		gets := srv.Metrics.Gets.Value()
		v, err := dep.cli.Get(key)
		if err != nil || string(v) != "v2" {
			t.Fatalf("post-write Get = %q, %v", v, err)
		}
		if srv.Metrics.Gets.Value() == gets {
			return // served by the switch
		}
		if reads == 20 {
			t.Fatalf("%d reads after the write all went to the server: the switch refused the refresh", reads)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBatchWireFormatRoundTrip(t *testing.T) {
	frames := [][]byte{
		[]byte("alpha"), []byte("b"), bytes.Repeat([]byte{0x42}, 164),
	}
	var datagrams [][]byte
	w := batchWriter{write: func(dg []byte, _ int) {
		datagrams = append(datagrams, append([]byte(nil), dg...))
	}}
	for _, f := range frames {
		w.add(f)
	}
	w.flush()
	if len(datagrams) != 1 {
		t.Fatalf("got %d datagrams, want 1", len(datagrams))
	}
	var got [][]byte
	if !splitBatch(datagrams[0], func(f []byte) { got = append(got, append([]byte(nil), f...)) }) {
		t.Fatal("splitBatch rejected a batchWriter datagram")
	}
	if len(got) != len(frames) {
		t.Fatalf("round trip: %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d = %q, want %q", i, got[i], frames[i])
		}
	}

	// A lone frame ships bare: no batch framing for unbatched receivers.
	datagrams = nil
	w.add([]byte("solo"))
	w.flush()
	if len(datagrams) != 1 || !bytes.Equal(datagrams[0], []byte("solo")) {
		t.Errorf("single-frame flush = %q, want bare frame", datagrams)
	}

	// Malformed batches are rejected wholesale, never partially delivered.
	for _, bad := range [][]byte{
		{batchMagic0, batchMagic1},                       // truncated header
		{batchMagic0, batchMagic1, 0, 0},                 // zero count
		{batchMagic0, batchMagic1, 0, 2, 0, 1, 'x'},      // count overruns
		{batchMagic0, batchMagic1, 0, 1, 0, 1, 'x', 'y'}, // trailing junk
		{batchMagic0, batchMagic1, 0, 1, 0, 0},           // zero-length frame
	} {
		if splitBatch(bad, func([]byte) { t.Errorf("emitted from malformed batch %v", bad) }) {
			t.Errorf("splitBatch accepted %v", bad)
		}
	}
}

func TestUDPPipelinedGetBatch(t *testing.T) {
	// The batched client path over real sockets: frames coalesce into batch
	// datagrams on the way in, replies coalesce on the way back.
	dep := deploy(t, 2, time.Hour)
	cep := dep.eps[len(dep.eps)-1] // the client's endpoint
	dep.cli.SetSendBatch(cep.SendBatch)

	const n = 48
	keys := make([]netproto.Key, n)
	for i := range keys {
		keys[i] = workload.KeyName(i)
		if err := dep.cli.Put(keys[i], workload.ValueFor(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	vals, errs := dep.cli.GetBatch(keys)
	for i := range keys {
		if errs[i] != nil {
			t.Fatalf("GetBatch[%d]: %v", i, errs[i])
		}
		if !bytes.Equal(vals[i], workload.ValueFor(i, 32)) {
			t.Errorf("GetBatch[%d] = %q", i, vals[i])
		}
	}
}

func TestUDPStatsRPC(t *testing.T) {
	dep := deploy(t, 1, time.Hour)
	dep.cli.Put(netproto.KeyFromString("k"), []byte("v"))

	// Issue the stats control request directly.
	swAddr := dep.daemon.Addr().String()
	ep, err := Dial(swAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	pkt := netproto.Packet{Op: netproto.OpCtlStats, Seq: 42}
	payload, _ := pkt.Marshal()
	got := make(chan netproto.Packet, 1)
	go ep.Run(func(frame []byte) {
		fr, err := netproto.DecodeFrame(frame)
		if err != nil {
			return
		}
		var p netproto.Packet
		if netproto.Decode(fr.Payload, &p) == nil && p.Op == netproto.OpCtlStatsReply {
			p.Value = append([]byte(nil), p.Value...)
			got <- p
		}
	})
	ep.Send(netproto.MarshalFrame(CtlAddr, netproto.Addr(0x9000), payload))
	select {
	case p := <-got:
		if p.Seq != 42 || len(p.Value) != 40 {
			t.Errorf("stats reply = %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no stats reply")
	}
}

func TestUDPDaemonRejectsGarbage(t *testing.T) {
	dep := deploy(t, 1, time.Hour)
	ep, err := Dial(dep.daemon.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Send([]byte{0x1})                      // not even a frame
	ep.Send(netproto.MarshalFrame(9, 9, nil)) // empty payload
	// The daemon must still be alive.
	if err := dep.cli.Put(netproto.KeyFromString("k"), []byte("v")); err != nil {
		t.Fatalf("daemon died on garbage: %v", err)
	}
}

func TestUDPRemoteBlockWindow(t *testing.T) {
	// The networked §4.3 block protocol: block via control RPC, verify a
	// write queues, unblock, verify it applies.
	dep := deploy(t, 1, time.Hour)
	key := netproto.KeyFromString("blocked")
	node := &remoteNode{d: dep.daemon, addr: 1}

	// The daemon can only RPC servers it has learned. The async Hello
	// may still be in flight, so force one full round trip first.
	if _, err := dep.cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("warm-up Get: %v", err)
	}
	node.BlockWrites(key)
	done := make(chan error, 1)
	go func() { done <- dep.cli.Put(key, []byte("v")) }()
	select {
	case <-done:
		t.Fatal("write completed during block window")
	case <-time.After(300 * time.Millisecond):
	}
	node.UnblockWrites(key)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after unblock: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write never completed after unblock")
	}
	if v, _, ok := dep.servers[0].Store().Get(key); !ok || string(v) != "v" {
		t.Errorf("store = %q %v", v, ok)
	}
}

// TestUDPRestartedDaemonBlockWindow: a daemon that replaces another on the
// same address numbers its control requests afresh, and the server must
// still apply them rather than take them for the old daemon's retransmits.
func TestUDPRestartedDaemonBlockWindow(t *testing.T) {
	dep := deploy(t, 1, time.Hour)
	if _, err := dep.cli.Get(netproto.KeyFromString("warm")); err != client.ErrNotFound {
		t.Fatalf("warm-up Get: %v", err)
	}
	first := &remoteNode{d: dep.daemon, addr: 1}
	first.BlockWrites(netproto.KeyFromString("a"))
	first.UnblockWrites(netproto.KeyFromString("a"))

	listen := dep.daemon.Addr().String()
	dep.daemon.Close()
	d, err := NewSwitch(SwitchConfig{Listen: listen, CacheCapacity: 64, Cycle: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	t.Cleanup(d.Close)
	dep.eps[0].Hello(1)
	key := netproto.KeyFromString("blocked")
	if _, err := dep.cli.Get(key); err != client.ErrNotFound {
		t.Fatalf("warm-up Get through the new daemon: %v", err)
	}

	node := &remoteNode{d: d, addr: 1}
	node.BlockWrites(key)
	done := make(chan error, 1)
	go func() { done <- dep.cli.Put(key, []byte("v")) }()
	select {
	case <-done:
		t.Fatal("write completed during the new daemon's block window")
	case <-time.After(300 * time.Millisecond):
	}
	node.UnblockWrites(key)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after unblock: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write never completed after unblock")
	}
}

// TestUDPRestartedClientWritesApply: a client process that replaces another
// on the same rack address must have its writes applied, not taken for the
// old process's retransmits by the server's replay guard.
func TestUDPRestartedClientWritesApply(t *testing.T) {
	dep := deploy(t, 1, time.Hour)
	key := netproto.KeyFromString("user:1")
	if err := dep.cli.Put(key, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	dep.eps[len(dep.eps)-1].Close() // the first client process exits

	ep, err := Dial(dep.daemon.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	cli, err := client.New(client.Config{
		Addr:      0x8001,
		Partition: func(netproto.Key) netproto.Addr { return 1 },
		Timeout:   100 * time.Millisecond,
		Retries:   5,
		Policy:    client.Policy{RTOFloor: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.SetSend(ep.Send)
	go ep.Run(cli.Receive)
	if err := cli.Put(key, []byte("bob")); err != nil {
		t.Fatal(err)
	}
	if v, err := cli.Get(key); err != nil || string(v) != "bob" {
		t.Errorf("Get after the restarted client's Put = %q, %v", v, err)
	}
	if n := dep.servers[0].Metrics.WritesDeduped.Value(); n != 0 {
		t.Errorf("server deduped %d of the restarted client's writes", n)
	}
}

// TestUDPControllerFetchesFromOwner: the daemon's controller finds a key's
// owner through the clients' partition of the learned servers, so every
// cache-insertion fetch goes to the owner and no other server is asked.
func TestUDPControllerFetchesFromOwner(t *testing.T) {
	const nServers, perServer = 4, 2
	d, err := NewSwitch(SwitchConfig{Listen: "127.0.0.1:0", CacheCapacity: 64, Cycle: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	t.Cleanup(d.Close)

	type fetch struct {
		server int
		key    netproto.Key
	}
	var mu sync.Mutex
	var fetches []fetch
	var hot []netproto.Key // perServer keys owned by each server
	for i := 0; i < nServers; i++ {
		i, addr := i, netproto.Addr(i+1)
		srv := server.New(server.Config{Addr: addr, Shards: 1})
		ep, err := Dial(d.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		srv.SetSend(ep.Send)
		go ep.Run(func(frame []byte) {
			var pkt netproto.Packet
			if fr, err := netproto.DecodeFrame(frame); err == nil &&
				netproto.Decode(fr.Payload, &pkt) == nil && pkt.Op == netproto.OpCtlFetch {
				mu.Lock()
				fetches = append(fetches, fetch{i, pkt.Key})
				mu.Unlock()
			}
			srv.Receive(frame)
		})
		ep.Hello(addr)
		for id, n := 0, 0; n < perServer; id++ {
			if key := workload.KeyName(id); client.PartitionOf(key, nServers) == i {
				srv.Store().Put(key, workload.ValueFor(id, 16))
				hot = append(hot, key)
				n++
			}
		}
	}
	for a := netproto.Addr(1); a <= nServers; a++ {
		await(t, fmt.Sprintf("server %d learned", a), func() bool { return d.ServerLoadOf(a) != nil })
	}

	for _, key := range hot {
		if err := d.Controller().InsertKey(key); err != nil {
			t.Fatalf("InsertKey(%v): %v", key, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	fetched := map[netproto.Key]bool{}
	for _, f := range fetches {
		fetched[f.key] = true
		if owner := client.PartitionOf(f.key, nServers); f.server != owner {
			t.Errorf("fetch of %v went to server %d, owner is %d", f.key, f.server+1, owner+1)
		}
	}
	if len(fetched) != len(hot) {
		t.Errorf("%d of %d cached keys were fetched", len(fetched), len(hot))
	}
}

func TestHelloHeartbeatSurvivesLateSwitch(t *testing.T) {
	// The regression behind StartHello: a server whose first Hello is
	// lost (here: sent into the void before any switch listens) must
	// still become reachable once the heartbeat lands.
	d, err := NewSwitch(SwitchConfig{Listen: "127.0.0.1:0", Cycle: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	swAddr := d.Addr().String()

	srv := server.New(server.Config{Addr: 1, Shards: 1})
	ep, err := Dial(swAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	srv.SetSend(ep.Send)
	go ep.Run(srv.Receive)
	stop := ep.StartHello(1, 20*time.Millisecond)
	defer stop()

	// Only now does the switch start serving: the first Hello went to a
	// bound-but-unserved socket buffer... simulate the worst case by
	// draining nothing until here.
	go d.Run()

	cep, err := Dial(swAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cep.Close)
	cli, err := client.New(client.Config{
		Addr:      0x8001,
		Partition: func(netproto.Key) netproto.Addr { return 1 },
		Timeout:   50 * time.Millisecond,
		Retries:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.SetSend(cep.Send)
	go cep.Run(cli.Receive)

	if err := cli.Put(netproto.KeyFromString("k"), []byte("v")); err != nil {
		t.Fatalf("server unreachable despite heartbeat: %v", err)
	}
}

func TestPortExhaustionDoesNotCrash(t *testing.T) {
	// More distinct rack addresses than the chip has ports: the daemon logs,
	// keeps serving the peers it did learn, and drops what the others send.
	// It used to run their frames as if they had entered on port 0, which
	// is some learned peer's port. The pipeline trusts the ingress port (a
	// cache update is accepted only from the port of the key's server), so
	// a peer with no port could overwrite what port 0's server has cached.
	d, err := NewSwitch(SwitchConfig{Listen: "127.0.0.1:0", Cycle: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	go d.Run()
	sw := d.Addr().AddrPort()

	// The server's Hello is the first frame the daemon sees: port 0.
	dep := attach(t, d, 1)
	await(t, "the server's port", func() bool { return d.ServerLoadOf(1) != nil })
	key := workload.KeyName(1)
	if err := dep.cli.Put(key, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	if err := d.Controller().InsertKey(key); err != nil {
		t.Fatal(err)
	}

	const first, overflow = netproto.Addr(0x9000), netproto.Addr(0x9fff)
	ep, err := Dial(sw.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	free := d.Switch().Config().Chip.NumPorts() - len(d.table.Load().peers)
	for i := 0; i < free+16; i++ {
		ep.Hello(first + netproto.Addr(i))
	}
	// What the server would send to refresh its cached key, from an address
	// there is no port for.
	peer := listenRaw(t)
	forged, err := netproto.AppendFramePacket(nil, 1, overflow,
		&netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 1 << 20, Key: key, Value: []byte("poison")})
	if err != nil {
		t.Fatal(err)
	}
	peer.conn.WriteToUDPAddrPort(forged, sw)
	await(t, "the drops", func() bool { return d.counters.UnlearnedDrops.Value() == 16+1 })
	if v, err := dep.cli.Get(key); err != nil || string(v) != "cached" {
		t.Errorf("Get after a cache update from an unlearned peer = %q, %v", v, err)
	}

	// The daemon must still answer control requests (the reply follows the
	// learned address to the socket that last used it).
	pkt := netproto.Packet{Op: netproto.OpCtlStats, Seq: 7}
	payload, _ := pkt.Marshal()
	peer.conn.WriteToUDPAddrPort(netproto.MarshalFrame(CtlAddr, first, payload), sw)
	_, frames := peer.read()
	var reply netproto.Packet
	if fr, err := netproto.DecodeFrame(frames[0]); err != nil || netproto.Decode(fr.Payload, &reply) != nil ||
		reply.Op != netproto.OpCtlStatsReply || reply.Seq != 7 {
		t.Errorf("stats reply = %+v (%v)", reply, err)
	}
}

func TestUDPDaemonServerLoadBalanceMetrics(t *testing.T) {
	reg := stats.NewRegistry()
	balance.RegisterOn(reg)
	dep := deployCfg(t, 2, SwitchConfig{
		Listen:        "127.0.0.1:0",
		CacheCapacity: 64,
		Cycle:         50 * time.Millisecond,
		Registry:      reg,
	})

	// Seed a handful of keys (writes land on their partition owners), then
	// read them back so both servers accumulate forwarded queries.
	for i := 0; i < 10; i++ {
		if err := dep.cli.Put(workload.KeyName(i), workload.ValueFor(i, 16)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < 10; i++ {
			if _, err := dep.cli.Get(workload.KeyName(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i := 1; i <= 2; i++ {
		ld := dep.daemon.ServerLoadOf(netproto.Addr(i))
		if ld == nil {
			t.Fatalf("no load counters for server %d", i)
		}
		if ld.Gets.Value() == 0 && ld.Puts.Value() == 0 {
			t.Errorf("server %d: no forwarded queries counted", i)
		}
	}
	if dep.daemon.ServerLoadOf(0x8001) != nil {
		t.Error("client address got server load counters")
	}

	snap := reg.Snapshot()
	if snap.Counters["server1.gets"]+snap.Counters["server2.gets"] == 0 {
		t.Errorf("registry snapshot has no forwarded gets; keys = %v", snap.Keys())
	}
	if _, ok := snap.Gauges["balance.imbalance_ratio"]; !ok {
		t.Errorf("no derived balance gauges; gauges = %v", snap.GaugeKeys())
	}

	// Once the controller promotes a hot key, reads stop adding to the
	// owner's forwarded load — the cache absorbed them.
	hot := workload.KeyName(3)
	deadline := time.Now().Add(5 * time.Second)
	for !dep.daemon.Controller().Cached(hot) {
		if time.Now().After(deadline) {
			t.Fatal("hot key never cached")
		}
		if _, err := dep.cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	owner := netproto.Addr(client.PartitionOf(hot, 2) + 1)
	ld := dep.daemon.ServerLoadOf(owner)
	before := ld.Gets.Value()
	for i := 0; i < 10; i++ {
		if _, err := dep.cli.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	if after := ld.Gets.Value(); after != before {
		t.Errorf("cached key still added %d forwarded reads", after-before)
	}
}
