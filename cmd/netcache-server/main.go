// Command netcache-server runs one NetCache storage server: the in-memory
// key-value store behind the server-agent shim that speaks the NetCache
// protocol and keeps the switch cache coherent on writes.
//
// Usage:
//
//	netcache-server -switch 127.0.0.1:9000 -addr 1 [-shards 4]
//	                [-preload 1000] [-valuesize 64]
//	                [-telemetry-addr 127.0.0.1:9180]
//
// -telemetry-addr serves the live telemetry plane over HTTP: /metrics
// (Prometheus text), /snapshot (JSON counters plus windowed rates),
// /debug/pprof. See DESIGN.md §13.
//
// -addr is this server's rack address (1..N); clients partition the
// keyspace over these addresses. -preload fills the store with the shared
// deterministic dataset so a fleet started with the same flags agrees on
// contents.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/server"
	"netcache/internal/stats"
	"netcache/internal/telemetry"
	"netcache/internal/udptrans"
	"netcache/internal/workload"
)

func main() {
	swAddr := flag.String("switch", "127.0.0.1:9000", "switch daemon UDP address")
	addr := flag.Int("addr", 1, "this server's rack address (1..N)")
	shards := flag.Int("shards", 4, "store shards (per-core sharding)")
	preload := flag.Int("preload", 0, "preload this many dataset items owned by this server")
	servers := flag.Int("servers", 1, "total servers in the rack (for -preload ownership)")
	valueSize := flag.Int("valuesize", 64, fmt.Sprintf("preloaded value size in bytes (1..%d)", netproto.MaxValueSize))
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /snapshot, /debug/pprof on this HTTP address (empty disables)")
	flag.Parse()

	home := netproto.Addr(*addr)
	if int(home) != *addr || !home.IsServerHome() {
		log.Fatalf("netcache-server: -addr must be a server home address, in [1, %d]", netproto.NodeAlias(0)-1)
	}
	if *preload > 0 {
		if err := checkPreload(*valueSize, *servers, *addr); err != nil {
			log.Fatalf("netcache-server: %v", err)
		}
	}
	srv := server.New(server.Config{Addr: home, Shards: *shards})

	ep, err := udptrans.Dial(*swAddr)
	if err != nil {
		log.Fatalf("netcache-server: %v", err)
	}
	defer ep.Close()
	srv.SetSend(ep.Send)

	if *telemetryAddr != "" {
		reg := stats.NewRegistry()
		reg.Register("server", func() any { return &srv.Metrics })
		reg.Register("server.store", func() any { return srv.StoreStats() })
		reg.Register("udptrans", func() any { return ep.Counters() })
		mon := stats.NewMonitor(stats.MonitorConfig{Registry: reg})
		mon.Start()
		defer mon.Stop()
		ts := telemetry.New(telemetry.Config{Registry: reg, Monitor: mon})
		bound, err := ts.Start(*telemetryAddr)
		if err != nil {
			log.Fatalf("netcache-server: %v", err)
		}
		defer ts.Close()
		log.Printf("netcache-server: telemetry on http://%v/metrics", bound)
	}

	if *preload > 0 {
		var owned []int
		for id := 0; id < *preload; id++ {
			if client.PartitionOf(workload.KeyName(id), *servers)+1 == *addr {
				owned = append(owned, id)
			}
		}
		st := srv.Store()
		st.Grow(len(owned))
		var value []byte
		for _, id := range owned {
			value = workload.AppendValue(value[:0], id, *valueSize)
			st.Put(workload.KeyName(id), value)
		}
		log.Printf("netcache-server: preloaded %d of %d items owned by addr %d", len(owned), *preload, *addr)
	}

	// Teach the switch our address before any traffic targets us, and
	// keep re-announcing: a single Hello can race the switch's startup or
	// be lost, leaving this server unreachable.
	stopHello := ep.StartHello(home, 2*time.Second)
	defer stopHello()
	log.Printf("netcache-server: addr %d serving via switch %s (%d store shards)", *addr, *swAddr, *shards)
	if err := ep.Run(srv.Receive); err != nil {
		log.Fatalf("netcache-server: %v", err)
	}
}

// checkPreload checks the flags -preload reads: every preloaded value must
// fit a frame and be one a client could Put, and the partition must count
// this server.
func checkPreload(valueSize, servers, addr int) error {
	if valueSize < 1 || valueSize > netproto.MaxValueSize {
		return fmt.Errorf("-valuesize %d with -preload: want [1, %d]", valueSize, netproto.MaxValueSize)
	}
	if want := max(1, addr); servers < want {
		return fmt.Errorf("-servers %d with -preload: want at least max(1, -addr) = %d", servers, want)
	}
	return nil
}
