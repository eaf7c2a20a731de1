package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netcache/internal/client"
	"netcache/internal/controller"
	"netcache/internal/netproto"
	"netcache/internal/rack"
	"netcache/internal/server"
	"netcache/internal/switchcore"
	"netcache/internal/udptrans"
	"netcache/internal/workload"
)

// deployment is one rack under test, built through the public constructors
// only: rack.New for simnet, and for UDP the same calls and flag defaults
// cmd/netcache-switch, -server and -client make, in one process. All UDP
// traffic crosses the host loopback interface, never a real link.
type deployment struct {
	spec *workloadSpec
	cl   *client.Client

	// simnet
	rack   *rack.Rack
	tickNs int64 // time spent inside inline Rack.Tick calls
	ticks  int

	// UDP loopback
	daemon  *udptrans.SwitchDaemon
	servers []*server.Server
	stop    func()
	// tr is the tracer the UDP send and receive callbacks report to. They
	// are wired once, when the sockets start, so unlike cmd/netcache-* each
	// carries this one atomic load; nil outside the traced run.
	tr atomic.Pointer[tracer]
}

// deploy builds the deployment, loads the dataset and proves it answers one
// Get. The elapsed time is the setup_s metric.
func deploy(spec *workloadSpec) (*deployment, error) {
	d := &deployment{spec: spec}
	var err error
	if spec.udp {
		err = d.buildUDP()
	} else {
		err = d.buildSim()
	}
	if err != nil {
		return nil, err
	}
	if v, err := d.cl.Get(workload.KeyName(0)); err != nil || !workload.CheckValue(0, v) {
		d.close()
		return nil, fmt.Errorf("%s: readiness Get failed: %v", spec.name, err)
	}
	return d, nil
}

func (d *deployment) buildSim() error {
	r, err := rack.New(rack.Config{
		Servers:       d.spec.servers,
		Clients:       1,
		CacheCapacity: cacheCapacity,
		Replicate:     d.spec.replicate,
	})
	if err != nil {
		return err
	}
	r.LoadDataset(datasetKeys, valueSize)
	d.rack = r
	d.cl = r.Client(0)
	d.servers = r.Servers
	d.stop = r.Switch.Close
	return nil
}

func (d *deployment) buildUDP() error {
	// cmd/netcache-switch: default program, 1 s cycle, 4 workers.
	daemon, err := udptrans.NewSwitch(udptrans.SwitchConfig{
		Listen:        "127.0.0.1:0",
		CacheCapacity: cacheCapacity,
	})
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	var stops []func()
	d.stop = func() {
		for _, s := range stops {
			s()
		}
		daemon.Close()
		wg.Wait()
		daemon.Switch().Close()
	}
	wg.Add(1)
	go func() { defer wg.Done(); _ = daemon.Run() }()
	swAddr := daemon.Addr().String()

	// cmd/netcache-server: 4 shards, chained engine, -preload of the keys
	// this address owns, Hello every 2 s.
	n := d.spec.servers
	addrs := make([]netproto.Addr, n)
	for i := range addrs {
		addrs[i] = netproto.Addr(i + 1)
		srv := server.New(server.Config{Addr: addrs[i], Shards: 4, Engine: "chained"})
		ep, err := udptrans.Dial(swAddr)
		if err != nil {
			d.stop()
			return err
		}
		srv.SetSend(timed(d.tr.Load, spanServerSend, ep.Send))
		for id := 0; id < datasetKeys; id++ {
			key := workload.KeyName(id)
			if client.PartitionOf(key, n) == i {
				srv.Store().Put(key, workload.ValueFor(id, valueSize))
			}
		}
		stops = append(stops, ep.StartHello(addrs[i], 2*time.Second), ep.Close)
		wg.Add(1)
		go func() { defer wg.Done(); _ = ep.Run(timed(d.tr.Load, spanServerRecv, srv.Receive)) }()
		d.servers = append(d.servers, srv)
	}

	// cmd/netcache-client: 50 ms timeout, 5 retries, adaptive RTO with a
	// 5 ms floor; -window as the workload says.
	ep, err := udptrans.Dial(swAddr)
	if err != nil {
		d.stop()
		return err
	}
	stops = append(stops, ep.Close)
	cl, err := client.New(client.Config{
		Addr:      0x8001,
		Partition: client.HashPartitioner(addrs),
		Timeout:   50 * time.Millisecond,
		Retries:   5,
		Policy:    client.Policy{RTOFloor: 5 * time.Millisecond},
		Window:    d.spec.window,
	})
	if err != nil {
		d.stop()
		return err
	}
	cl.SetSend(timed(d.tr.Load, spanClientSend, ep.Send))
	cl.SetSendBatch(ep.SendBatch)
	wg.Add(1)
	go func() { defer wg.Done(); _ = ep.Run(timed(d.tr.Load, spanClientRecv, cl.Receive)) }()
	d.daemon, d.cl = daemon, cl

	// The switch learns a server from its Hello; a Get that overtakes the
	// Hello is dropped and costs a 50 ms retransmission, so wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for _, a := range addrs {
		for daemon.ServerLoadOf(a) == nil {
			if time.Now().After(deadline) {
				d.stop()
				return fmt.Errorf("switch did not learn server %d", a)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}

func (d *deployment) close() { d.stop() }

// tick runs one inline controller cycle on simnet and charges its time.
func (d *deployment) tick() {
	t := time.Now()
	d.rack.Tick()
	d.tickNs += int64(time.Since(t))
	d.ticks++
}

// cacheLen is the controller's count of cached items.
func (d *deployment) cacheLen() int {
	_, ctl := d.switchAndController()
	return ctl.Len()
}

func (d *deployment) switchAndController() (*switchcore.Switch, *controller.Controller) {
	if d.spec.udp {
		return d.daemon.Switch(), d.daemon.Controller()
	}
	return d.rack.Switch, d.rack.Controller
}

// counters is a point-in-time read of the components' own counters; the
// difference of two reads is what happened in a window.
type counters struct {
	serverOps []uint64 // queries each storage server served
	hits      uint64   // Gets answered by the switch cache
	rxFrames  uint64   // frames into the switch pipeline
	txFrames  uint64   // frames out of it

	inserts, evictions uint64
	readRetries        uint64

	retransmits, timeouts, unmatched uint64

	tickNs int64
	ticks  int
}

func (d *deployment) read() counters {
	c := counters{tickNs: d.tickNs, ticks: d.ticks}
	sw, ctl := d.switchAndController()
	ps := sw.Pipeline().Stats()
	c.hits, c.rxFrames, c.txFrames = ps.Mirrored, ps.RxPackets, ps.TxPackets
	c.inserts, c.evictions = ctl.Metrics.Inserts.Value(), ctl.Metrics.Evictions.Value()
	for i, srv := range d.servers {
		if d.spec.udp {
			// What the switch forwarded, as the daemon's balance view counts it.
			ld := d.daemon.ServerLoadOf(netproto.Addr(i + 1))
			c.serverOps = append(c.serverOps, ld.Gets.Value()+ld.Puts.Value()+ld.Deletes.Value())
		} else {
			m := &srv.Metrics
			c.serverOps = append(c.serverOps, m.Gets.Value()+m.Puts.Value()+m.Deletes.Value())
		}
		c.readRetries += srv.Store().ReadRetries()
	}
	m := &d.cl.Metrics
	c.retransmits, c.timeouts, c.unmatched = m.Retransmit.Value(), m.Timeouts.Value(), m.Unmatched.Value()
	return c
}

// sub returns c - prev, field by field.
func (c counters) sub(prev counters) counters {
	out := c
	out.serverOps = make([]uint64, len(c.serverOps))
	for i := range c.serverOps {
		out.serverOps[i] = c.serverOps[i] - prev.serverOps[i]
	}
	out.hits -= prev.hits
	out.rxFrames -= prev.rxFrames
	out.txFrames -= prev.txFrames
	out.inserts -= prev.inserts
	out.evictions -= prev.evictions
	out.readRetries -= prev.readRetries
	out.retransmits -= prev.retransmits
	out.timeouts -= prev.timeouts
	out.unmatched -= prev.unmatched
	out.tickNs -= prev.tickNs
	out.ticks -= prev.ticks
	return out
}

// imbalance is max/mean of the per-server queries served (paper Fig. 10b).
func (c counters) imbalance() float64 {
	var sum, max uint64
	for _, v := range c.serverOps {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(c.serverOps)) / float64(sum)
}

// cpuStolen is the steal time of all CPUs since boot (/proc/stat, in USER_HZ
// ticks of 10 ms). 0 when the file cannot be read.
func cpuStolen() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	// cpu user nice system idle iowait irq softirq steal ...
	if f := bytes.Fields(line); len(f) > 8 && string(f[0]) == "cpu" {
		ticks, _ := strconv.ParseInt(string(f[8]), 10, 64)
		return time.Duration(ticks) * 10 * time.Millisecond
	}
	return 0
}

// udpDatagramsSent is the host's count of UDP datagrams sent (OutDatagrams
// in /proc/net/snmp). Every datagram of a udp.* rack goes to or from the
// switch, so against the switch's frame counters it gives frames per
// datagram without reaching into udptrans. 0 when the file cannot be read.
func udpDatagramsSent() uint64 {
	raw, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0
	}
	var header [][]byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) == 0 || string(f[0]) != "Udp:" {
			continue
		}
		if header == nil {
			header = f
			continue
		}
		for i, name := range header {
			if string(name) == "OutDatagrams" && i < len(f) {
				n, _ := strconv.ParseUint(string(f[i]), 10, 64)
				return n
			}
		}
	}
	return 0
}
