// Package udptrans runs the NetCache components as separate processes over
// real UDP sockets: the deployment story behind cmd/netcache-switch,
// cmd/netcache-server and cmd/netcache-client.
//
// A UDP datagram carries one rack frame (netproto frame header + packet) or a
// batch of them, standing in for the Ethernet/IP encapsulation of the paper's
// testbed, and every socket is driven by the same loop (burst): read a
// datagram, dispatch every frame in it, flush each destination once. The
// switch daemon is a userspace realization of the ToR switch: it binds one
// socket, learns which UDP endpoint backs each rack address from the
// traffic itself (the way an L2 switch learns MACs), pushes every frame
// through the compiled NetCache pipeline, and hosts the controller. Control
// traffic between the controller and the storage servers (value fetches for
// cache population, write-block windows) travels on the same socket using
// the reserved controller address, mirroring the paper's separation of the
// control plane from the query path.
package udptrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
	"netcache/internal/stats"
	"netcache/internal/switchcore"
)

// CtlAddr is the rack address reserved for the switch-resident controller.
const CtlAddr = netproto.Addr(0xFFFF)

// maxDatagram bounds one datagram on the wire.
const maxDatagram = 2048

// Batch wire format. A datagram whose first two bytes are the batch magic
// packs several frames: [0xB5 0x17][count u16 BE] then, per frame,
// [len u16 BE][frame bytes]. A receiver validates the whole structure
// (every length in bounds, datagram fully consumed) before delivering any
// frame and otherwise treats the datagram as one bare frame, so a plain
// frame whose destination address happens to read 0xB517 still gets
// through — it would also need a plausible count and an exact
// length-prefixed layout to be misparsed, and the per-frame checksum in
// DecodeFrame guards the remaining astronomically unlikely case.
const (
	batchMagic0     = 0xB5
	batchMagic1     = 0x17
	batchHeaderSize = 4 // magic(2) + count(2)
	batchFrameOff   = 6 // header + first frame's len prefix
)

// splitBatch delivers each frame of a batch datagram to emit and reports
// whether d was a structurally valid batch. Frames alias d.
func splitBatch(d []byte, emit func(frame []byte)) bool {
	if len(d) < batchFrameOff || d[0] != batchMagic0 || d[1] != batchMagic1 {
		return false
	}
	count := int(binary.BigEndian.Uint16(d[2:4]))
	if count == 0 {
		return false
	}
	// Structural pass first: nothing is delivered from a malformed batch.
	off := batchHeaderSize
	for i := 0; i < count; i++ {
		if off+2 > len(d) {
			return false
		}
		n := int(binary.BigEndian.Uint16(d[off:]))
		off += 2
		if n == 0 || off+n > len(d) {
			return false
		}
		off += n
	}
	if off != len(d) {
		return false
	}
	off = batchHeaderSize
	for i := 0; i < count; i++ {
		n := int(binary.BigEndian.Uint16(d[off:]))
		off += 2
		emit(d[off : off+n])
		off += n
	}
	return true
}

// batchWriter packs one destination's frames into batch datagrams bounded by
// maxDatagram. A lone frame in a flush ships bare (no batch framing), so
// batching peers interoperate with un-batched ones. add copies the frame into
// the writer's buffer, so the caller may recycle it as soon as add returns.
type batchWriter struct {
	write func(datagram []byte, frames int)
	dst   netip.AddrPort
	buf   []byte // never outgrows its cap
	count int
}

func (w *batchWriter) add(frame []byte) {
	need := 2 + len(frame)
	if batchHeaderSize+need > maxDatagram {
		w.flush()
		w.write(frame, 1) // oversize frame ships alone, bare
		return
	}
	if w.count > 0 && len(w.buf)+need > maxDatagram {
		w.flush()
	}
	if w.count == 0 {
		w.buf = append(w.buf[:0], batchMagic0, batchMagic1, 0, 0)
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(len(frame)))
	w.buf = append(w.buf, frame...)
	w.count++
}

func (w *batchWriter) flush() {
	switch {
	case w.count == 0:
	case w.count == 1:
		w.write(w.buf[batchFrameOff:], 1) // single frame rides bare
	default:
		binary.BigEndian.PutUint16(w.buf[2:4], uint16(w.count))
		w.write(w.buf, w.count)
	}
	w.buf = w.buf[:0]
	w.count = 0
}

// Counters is the traffic a socket's bursts moved. Frames over datagrams is
// the batching factor; the hot path adds once per datagram, never per frame.
type Counters struct {
	RxDatagrams, TxDatagrams stats.Counter
	RxFrames, TxFrames       stats.Counter
	// Bursts counts read → dispatch → flush rounds.
	Bursts stats.Counter
	// UnlearnedDrops counts frames the switch daemon dropped because their
	// source could not be given a port, or their egress port has no peer.
	UnlearnedDrops stats.Counter
}

// burst is the unit of I/O on a socket, and the only code that reads or
// writes one: run reads a datagram, dispatches every frame in it, then
// flushes each destination touched exactly once. A send that arrives while
// run is dispatching joins that flush; any other send is on the wire before
// it returns. A flush never waits for more input and never arms a timer, so
// a lone frame costs one datagram per leg, as it would without batching.
// Several bursts may share one socket (the daemon's readers), each with its
// own buffers; the steady state allocates nothing.
type burst struct {
	conn *net.UDPConn
	ctr  *Counters            // shared by every burst on conn
	logf func(string, ...any) // nil: write errors are dropped silently

	// mu guards the fields below: send is called by the dispatching
	// goroutine and by any other (hello ticker, client retransmit timers,
	// the generator, the daemon's control RPCs).
	mu          sync.Mutex
	dispatching bool
	ws          []*batchWriter // by destination slot: the daemon's switch port, 0 on an endpoint
	dirty       []int          // slots with frames queued, in first-use order
}

// send copies frames into slot's writer, bound for dst.
func (b *burst) send(slot int, dst netip.AddrPort, frames ...[]byte) {
	b.mu.Lock()
	for len(b.ws) <= slot {
		w := &batchWriter{buf: make([]byte, 0, maxDatagram)}
		w.write = func(dg []byte, n int) { b.tx(dg, w.dst, n) }
		b.ws = append(b.ws, w)
	}
	w := b.ws[slot]
	if w.count == 0 {
		w.dst = dst
		b.dirty = append(b.dirty, slot)
	}
	for _, f := range frames {
		w.add(f)
	}
	if !b.dispatching {
		b.flush()
	}
	b.mu.Unlock()
}

// flush writes every queued frame, in the order destinations were first
// touched. (Server-bound ports first was measured: 4–18 % slower on
// udp.zipf99_win32, the woken servers take the core the hit replies need.)
func (b *burst) flush() {
	for _, slot := range b.dirty {
		b.ws[slot].flush()
	}
	b.dirty = b.dirty[:0]
}

// tx counts before it writes, so a peer that has the datagram also sees it
// counted. Errors are dropped: UDP semantics.
func (b *burst) tx(dg []byte, dst netip.AddrPort, frames int) {
	b.ctr.TxDatagrams.Inc()
	b.ctr.TxFrames.Add(uint64(frames))
	if _, err := b.conn.WriteToUDPAddrPort(dg, dst); err != nil && b.logf != nil {
		b.logf("udptrans: tx to %v: %v", dst, err)
	}
}

// run is the loop; it returns nil once the socket is closed. The frame
// handed to handle aliases the read buffer, which the next read overwrites.
func (b *burst) run(handle func(frame []byte, from netip.AddrPort)) error {
	rx := make([]byte, maxDatagram)
	for {
		n, from, err := b.conn.ReadFromUDPAddrPort(rx)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		b.dispatch(rx[:n], from, handle)
	}
}

// dispatch is one burst: every frame of datagram to handle, then one flush.
// Receive counters move before the flush, so whoever gets a frame of the
// flush finds the datagram that caused it already counted.
func (b *burst) dispatch(datagram []byte, from netip.AddrPort, handle func(frame []byte, from netip.AddrPort)) {
	b.ctr.RxDatagrams.Inc()
	b.ctr.Bursts.Inc()
	b.mu.Lock()
	b.dispatching = true
	b.mu.Unlock()
	frames := 0
	if !splitBatch(datagram, func(f []byte) { frames++; handle(f, from) }) {
		frames = 1
		handle(datagram, from)
	}
	b.ctr.RxFrames.Add(uint64(frames))
	b.mu.Lock()
	b.dispatching = false
	b.flush()
	b.mu.Unlock()
}

// SwitchConfig configures a switch daemon.
type SwitchConfig struct {
	// Listen is the UDP address to bind (e.g. "127.0.0.1:9000").
	Listen string
	// Switch sizes the data-plane program; zero value uses
	// switchcore.TestConfig.
	Switch switchcore.Config
	// CacheCapacity caps cached items (zero: switch limit).
	CacheCapacity int
	// Cycle is the controller period (zero: 1s, like the paper).
	Cycle time.Duration
	// Registry, when set, receives the socket's Counters as "udptrans" and
	// one "server<addr>" metric source per learned storage server, counting
	// the queries the switch actually forwarded to it (see ServerLoad). With
	// balance.RegisterOn these feed the derived balance.* analytics — the
	// residual-load view the paper's controller reasons about, live on the
	// daemon's telemetry plane.
	Registry *stats.Registry
	// Logf receives operational messages; nil silences them.
	Logf func(format string, args ...any)
}

// daemonReaders is the number of goroutines running a burst on the daemon's
// socket. The pipeline is concurrency-safe, so each pushes frames through the
// switch independently — the userspace analogue of the ASIC's parallel pipes.
// Measured on udp.zipf99_win32 (2 CPUs): one reader is ~10 % slower
// (180–194 against 205–212 kops/s), two and four are level.
const daemonReaders = 4

// ServerLoad counts the queries the switch daemon actually forwarded to one
// storage server — the residual load the cache did not absorb, which is the
// quantity NetCache balances. Cache-hit reads are answered by the switch and
// never reach these counters; rewritten writes (OpPutCached/OpDeleteCached)
// count as the client op they carry.
type ServerLoad struct {
	Gets, Puts, Deletes stats.Counter
}

// observe classifies one egress frame bound for the server. Non-query
// traffic on the same port (cache-update acks, replication) is not load
// shed by the cache and is deliberately not counted.
func (l *ServerLoad) observe(frame []byte) {
	if len(frame) <= netproto.FrameOpOff {
		return
	}
	switch netproto.Op(frame[netproto.FrameOpOff]) {
	case netproto.OpGet:
		l.Gets.Inc()
	case netproto.OpPut, netproto.OpPutCached:
		l.Puts.Inc()
	case netproto.OpDelete, netproto.OpDeleteCached:
		l.Deletes.Inc()
	}
}

// peer is what the daemon knows about one switch port.
type peer struct {
	ep netip.AddrPort
	// load holds forwarded-query counters when the port is backed by a
	// storage server (nil: the port belongs to a client).
	load *ServerLoad
}

// portTable is an immutable snapshot of the learned bindings: readers load
// it without a lock, learn publishes a modified copy.
type portTable struct {
	portOf map[netproto.Addr]int
	peers  []peer             // by switch port
	owner  client.Partitioner // the clients' partition of the learned servers
}

// SwitchDaemon is a running userspace NetCache switch.
type SwitchDaemon struct {
	cfg      SwitchConfig
	sw       *switchcore.Switch
	ctl      *controller.Controller
	conn     *net.UDPConn
	logf     func(string, ...any)
	counters Counters
	ctlOut   *burst // the controller's sends; never runs, so each is written at once

	mu    sync.Mutex // serializes learn's copy-and-publish
	table atomic.Pointer[portTable]

	rpcMu sync.Mutex
	// rpcSeq numbers control requests from a random start: servers dedup
	// them on SEQ alone, so a restarted daemon counting from 1 again would
	// have its blocks acked and never applied.
	rpcSeq  uint64
	pending map[uint64]chan netproto.Packet

	stopOnce sync.Once
	done     chan struct{}
}

// NewSwitch binds the socket and compiles the pipeline; Run starts serving.
func NewSwitch(cfg SwitchConfig) (*SwitchDaemon, error) {
	if cfg.Switch.CacheSize == 0 {
		cfg.Switch = switchcore.TestConfig()
	}
	if cfg.Cycle <= 0 {
		cfg.Cycle = time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sw, err := switchcore.New(cfg.Switch)
	if err != nil {
		return nil, err
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	d := &SwitchDaemon{
		cfg:     cfg,
		sw:      sw,
		conn:    conn,
		logf:    logf,
		rpcSeq:  rand.Uint64(),
		pending: make(map[uint64]chan netproto.Packet),
		done:    make(chan struct{}),
	}
	d.ctlOut = &burst{conn: conn, ctr: &d.counters, logf: logf}
	d.table.Store(&portTable{portOf: map[netproto.Addr]int{}})
	ctl, err := controller.New(controller.Config{
		Switch: sw,
		Partition: func(key netproto.Key) netproto.Addr {
			if owner := d.table.Load().owner; owner != nil {
				return owner(key)
			}
			return 0 // no server learned: no key has an owner
		},
		Resolve: func(a netproto.Addr) (controller.StorageNode, bool) {
			_, ok := d.table.Load().portOf[a]
			return &remoteNode{d: d, addr: a}, ok && a.IsServerHome()
		},
		PortOf: func(a netproto.Addr) (int, bool) {
			p, ok := d.table.Load().portOf[a]
			return p, ok
		},
		Capacity: cfg.CacheCapacity,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	d.ctl = ctl
	if cfg.Registry != nil {
		cfg.Registry.Register("udptrans", func() any { return &d.counters })
	}
	return d, nil
}

// Addr returns the bound UDP address.
func (d *SwitchDaemon) Addr() *net.UDPAddr { return d.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the daemon.
func (d *SwitchDaemon) Close() {
	d.stopOnce.Do(func() {
		close(d.done)
		d.conn.Close()
	})
}

// Run serves until Close. It blocks; start it in a goroutine if needed.
func (d *SwitchDaemon) Run() error {
	go d.controllerLoop()
	errc := make(chan error, daemonReaders)
	for i := 0; i < daemonReaders; i++ {
		w := d.newWorker()
		go func() {
			err := w.b.run(w.handle)
			if err != nil {
				d.Close() // unblock the other workers
			}
			errc <- err
		}()
	}
	var first error
	for i := 0; i < daemonReaders; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// worker is one reader of the daemon's socket: a burst, plus what lets the
// frames of a datagram share one learn and one emission slice.
type worker struct {
	d   *SwitchDaemon
	b   *burst
	out []dataplane.Emitted // one frame's emissions, reused

	// The last learn: the frame's source, the datagram's sender, and what
	// learn returned for them. A datagram's frames nearly always share both,
	// so learn runs once per distinct source, until the table changes.
	table *portTable
	src   netproto.Addr
	from  netip.AddrPort
	port  int
	ok    bool
}

func (d *SwitchDaemon) newWorker() *worker {
	return &worker{d: d, b: &burst{conn: d.conn, ctr: &d.counters, logf: d.logf}}
}

// handle pushes one frame through the pipeline and queues what it emits on
// the worker's burst, which flushes when the datagram is done.
func (w *worker) handle(frame []byte, from netip.AddrPort) {
	d := w.d
	fr, err := netproto.DecodeFrame(frame)
	if err != nil {
		return
	}
	if fr.Src != w.src || from != w.from || d.table.Load() != w.table {
		w.table, w.port, w.ok = d.learn(fr.Src, from)
		w.src, w.from = fr.Src, from
	}
	if !w.ok {
		// Not run as port 0: that is some learned peer's port, and the
		// pipeline trusts the ingress port (whose cache updates it applies).
		d.counters.UnlearnedDrops.Inc()
		return
	}

	// Control traffic addressed to the daemon bypasses the pipeline.
	if fr.Dst == CtlAddr {
		w.handleCtl(fr, from)
		return
	}

	w.out, err = d.sw.ProcessAppend(frame, w.port, w.out[:0])
	if err != nil {
		d.logf("switch: process: %v", err)
	}
	// Loaded after the pipeline ran: a route it used was published first.
	peers := d.table.Load().peers
	for _, em := range w.out {
		if em.Port < len(peers) {
			p := &peers[em.Port]
			w.b.send(em.Port, p.ep, em.Frame)
			if p.load != nil {
				p.load.observe(em.Frame)
			}
		} else { // emission toward a port never learned
			d.counters.UnlearnedDrops.Inc()
		}
		dataplane.ReleaseFrame(em)
	}
}

// learn binds a rack address to the sending UDP endpoint, allocating a
// switch port on first sight. It returns the port and the table the binding
// stands in; ok is false when the chip has no port left for a new address.
func (d *SwitchDaemon) learn(addr netproto.Addr, from netip.AddrPort) (t *portTable, port int, ok bool) {
	t = d.table.Load()
	if p, known := t.portOf[addr]; known && t.peers[p].ep == from {
		return t, p, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t = d.table.Load()
	p, known := t.portOf[addr]
	if !known && len(t.peers) >= d.sw.Config().Chip.NumPorts() {
		d.logf("switch: out of ports for %v", addr)
		return t, 0, false
	}
	nt := &portTable{portOf: t.portOf, peers: append([]peer(nil), t.peers...), owner: t.owner}
	if known {
		nt.peers[p].ep = from // endpoint may move (client restart)
		d.table.Store(nt)
		return nt, p, true
	}
	p = len(t.peers)
	nt.portOf = make(map[netproto.Addr]int, len(t.portOf)+1)
	for a, q := range t.portOf {
		nt.portOf[a] = q
	}
	nt.portOf[addr] = p
	nt.peers = append(nt.peers, peer{ep: from})
	if addr.IsServerHome() {
		ld := &ServerLoad{}
		nt.peers[p].load = ld
		var homes []netproto.Addr // ascending, as the clients list servers 1..N
		for a := range nt.portOf {
			if a.IsServerHome() {
				homes = append(homes, a)
			}
		}
		slices.Sort(homes)
		nt.owner = client.HashPartitioner(homes)
		if d.cfg.Registry != nil {
			// Named after the rack convention ("server<i>.gets" …) so the
			// balance analytics pick the counters up unchanged.
			d.cfg.Registry.Register(fmt.Sprintf("server%d", addr), func() any { return ld })
		}
	}
	// Publish before the route exists, so no emission finds its port empty.
	d.table.Store(nt)
	if err := d.sw.InstallRoute(addr, p); err != nil {
		d.logf("switch: route %v: %v", addr, err)
	}
	d.logf("switch: learned addr %d at %v (port %d)", addr, from, p)
	return nt, p, true
}

// ServerLoadOf returns the forwarded-query counters for the server learned
// at addr (nil if no server with that address has been seen).
func (d *SwitchDaemon) ServerLoadOf(addr netproto.Addr) *ServerLoad {
	t := d.table.Load()
	p, ok := t.portOf[addr]
	if !ok {
		return nil
	}
	return t.peers[p].load
}

// handleCtl answers control requests addressed to the daemon and routes
// control replies to the waiting RPCs.
func (w *worker) handleCtl(fr netproto.Frame, from netip.AddrPort) {
	d := w.d
	var pkt netproto.Packet
	if netproto.Decode(fr.Payload, &pkt) != nil {
		return
	}
	switch pkt.Op {
	case netproto.OpCtlStats:
		st := d.sw.Pipeline().Stats()
		val := make([]byte, 0, 40)
		for _, v := range []uint64{
			st.RxPackets, st.TxPackets, st.Mirrored, st.Digests, uint64(d.ctl.Len()),
		} {
			val = append(val, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
				byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		}
		reply := netproto.Packet{Op: netproto.OpCtlStatsReply, Seq: pkt.Seq, Key: pkt.Key, Value: val}
		payload, _ := reply.Marshal()
		w.b.send(w.port, from, netproto.MarshalFrame(fr.Src, CtlAddr, payload))
	case netproto.OpCtlFetchReply, netproto.OpGetReplyMiss, netproto.OpCtlAck:
		d.rpcMu.Lock()
		ch, ok := d.pending[pkt.Seq]
		if ok {
			delete(d.pending, pkt.Seq)
		}
		d.rpcMu.Unlock()
		if ok {
			if pkt.Value != nil {
				pkt.Value = append([]byte(nil), pkt.Value...)
			}
			ch <- pkt
		}
	}
}

// rpc sends a control request to a server and awaits the reply.
func (d *SwitchDaemon) rpc(dst netproto.Addr, pkt netproto.Packet) (netproto.Packet, error) {
	t := d.table.Load()
	port, ok := t.portOf[dst]
	if !ok {
		return netproto.Packet{}, fmt.Errorf("udptrans: no endpoint for addr %d", dst)
	}
	d.rpcMu.Lock()
	d.rpcSeq++
	pkt.Seq = d.rpcSeq
	ch := make(chan netproto.Packet, 1)
	d.pending[pkt.Seq] = ch
	d.rpcMu.Unlock()
	defer func() {
		d.rpcMu.Lock()
		delete(d.pending, pkt.Seq)
		d.rpcMu.Unlock()
	}()

	payload, err := pkt.Marshal()
	if err != nil {
		return netproto.Packet{}, err
	}
	frame := netproto.MarshalFrame(dst, CtlAddr, payload)
	for attempt := 0; attempt < 5; attempt++ {
		d.ctlOut.send(port, t.peers[port].ep, frame)
		select {
		case reply := <-ch:
			return reply, nil
		case <-time.After(50 * time.Millisecond):
		case <-d.done:
			return netproto.Packet{}, errors.New("udptrans: daemon closed")
		}
	}
	return netproto.Packet{}, fmt.Errorf("udptrans: ctl rpc to %d timed out", dst)
}

// remoteNode adapts a learned server endpoint to the controller's
// StorageNode interface using the control RPCs.
type remoteNode struct {
	d    *SwitchDaemon
	addr netproto.Addr
}

func (n *remoteNode) Addr() netproto.Addr { return n.addr }

// FetchValue returns the value with its store version, which seeds the
// switch's version guard: a data-plane refresh must carry a newer one.
func (n *remoteNode) FetchValue(key netproto.Key) ([]byte, uint64, bool) {
	reply, err := n.d.rpc(n.addr, netproto.Packet{Op: netproto.OpCtlFetch, Key: key})
	if err != nil || reply.Op != netproto.OpCtlFetchReply {
		return nil, 0, false
	}
	return netproto.SplitVersioned(reply.Value)
}

func (n *remoteNode) BlockWrites(key netproto.Key) {
	n.d.rpc(n.addr, netproto.Packet{Op: netproto.OpCtlBlock, Key: key})
}

func (n *remoteNode) UnblockWrites(key netproto.Key) {
	n.d.rpc(n.addr, netproto.Packet{Op: netproto.OpCtlUnblock, Key: key})
}

func (n *remoteNode) Uncached(key netproto.Key) {
	n.d.rpc(n.addr, netproto.Packet{Op: netproto.OpCtlUncached, Key: key})
}

// controllerLoop runs the cache-update cycle on the configured period, like
// the paper's once-per-second refresh.
func (d *SwitchDaemon) controllerLoop() {
	t := time.NewTicker(d.cfg.Cycle)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			before := d.ctl.Metrics.Inserts.Value()
			d.sw.SyncDigests()
			d.ctl.Tick()
			if n := d.ctl.Metrics.Inserts.Value() - before; n > 0 {
				d.logf("switch: controller cycle cached %d hot key(s), cache=%d", n, d.ctl.Len())
			}
		}
	}
}

// Controller exposes the daemon's controller (stats, forced inserts).
func (d *SwitchDaemon) Controller() *controller.Controller { return d.ctl }

// Switch exposes the daemon's compiled switch.
func (d *SwitchDaemon) Switch() *switchcore.Switch { return d.sw }

// Endpoint is the peer side of the UDP fabric: the socket a storage server
// or client binds, pointed at the switch daemon.
type Endpoint struct {
	b          *burst
	counters   Counters
	switchAddr netip.AddrPort
	closeOnce  sync.Once
}

// Dial binds an ephemeral UDP socket aimed at the switch daemon.
func Dial(switchAddr string) (*Endpoint, error) {
	sw, err := net.ResolveUDPAddr("udp", switchAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	// Unmapped: the socket is IPv4 and rejects ::ffff:a.b.c.d.
	ap := sw.AddrPort()
	e := &Endpoint{switchAddr: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
	e.b = &burst{conn: conn, ctr: &e.counters}
	return e, nil
}

// Counters returns the endpoint's traffic counters, live.
func (e *Endpoint) Counters() *Counters { return &e.counters }

// Send transmits one frame to the switch; the frame is copied before Send
// returns, so the caller may recycle it. Called from inside Run's callback
// (a server's replies and acks) it leaves with the rest of that datagram's
// sends, as batch datagrams, when the callback has seen the datagram's last
// frame; called at any other time, from any goroutine, it is on the wire
// before Send returns. Errors are dropped: UDP semantics.
func (e *Endpoint) Send(frame []byte) { e.b.send(0, e.switchAddr, frame) }

// SendBatch transmits a burst of frames to the switch, coalescing them into
// batch datagrams (as many frames per datagram as fit under maxDatagram).
// Frames are copied out before SendBatch returns, so callers may recycle
// them immediately — the contract client.SetSendBatch assumes.
func (e *Endpoint) SendBatch(frames [][]byte) { e.b.send(0, e.switchAddr, frames...) }

// Hello announces self to the switch so it learns the address→endpoint
// binding before any traffic targets it. The frame routes back to self and
// is discarded by the receiver.
func (e *Endpoint) Hello(self netproto.Addr) {
	e.Send(netproto.MarshalFrame(self, self, []byte("hello")))
}

// Run delivers received frames to fn until Close, unpacking batch datagrams
// into their individual frames. The frame slice is only valid for the
// duration of the call — it aliases the read buffer, which the next read
// overwrites — so fn must copy anything it keeps. client.Receive and
// server.Receive honor that contract. What fn sends leaves once fn has seen
// every frame of the datagram (see Send), so fn must not block on a reply to
// something it sent.
func (e *Endpoint) Run(fn func(frame []byte)) error {
	return e.b.run(func(frame []byte, _ netip.AddrPort) { fn(frame) })
}

// Close shuts the socket; Run returns.
func (e *Endpoint) Close() { e.closeOnce.Do(func() { e.b.conn.Close() }) }

// StartHello announces self immediately and then re-announces on the given
// interval until the returned stop function is called. A single Hello can
// race the daemon's socket bind or be lost outright (UDP); the heartbeat
// also re-teaches a restarted switch, whose learned bindings die with it.
func (e *Endpoint) StartHello(self netproto.Addr, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	e.Hello(self)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.Hello(self)
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}
