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
	valueSize := flag.Int("valuesize", 64, "preloaded value size in bytes")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /snapshot, /debug/pprof on this HTTP address (empty disables)")
	flag.Parse()

	if *addr < 1 || *addr >= 0x8000 {
		log.Fatalf("netcache-server: -addr must be in [1, 32767]")
	}
	srv := server.New(server.Config{Addr: netproto.Addr(*addr), Shards: *shards})

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
		owned := 0
		for id := 0; id < *preload; id++ {
			key := workload.KeyName(id)
			if client.PartitionOf(key, *servers)+1 != *addr {
				continue
			}
			srv.Store().Put(key, workload.ValueFor(id, *valueSize))
			owned++
		}
		log.Printf("netcache-server: preloaded %d of %d items owned by addr %d", owned, *preload, *addr)
	}

	// Teach the switch our address before any traffic targets us, and
	// keep re-announcing: a single Hello can race the switch's startup or
	// be lost, leaving this server unreachable.
	stopHello := ep.StartHello(netproto.Addr(*addr), 2*time.Second)
	defer stopHello()
	log.Printf("netcache-server: addr %d serving via switch %s (%d store shards)", *addr, *swAddr, *shards)
	if err := ep.Run(srv.Receive); err != nil {
		log.Fatalf("netcache-server: %v", err)
	}
}
