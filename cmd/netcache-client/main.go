// Command netcache-client talks to a NetCache rack over UDP: one-shot
// get/put/del operations, a Zipf load generator, and switch statistics.
//
// Usage:
//
//	netcache-client -switch 127.0.0.1:9000 -servers 2 get user:42
//	netcache-client -switch 127.0.0.1:9000 -servers 2 put user:42 alice
//	netcache-client -switch 127.0.0.1:9000 -servers 2 del user:42
//	netcache-client -switch 127.0.0.1:9000 -servers 2 \
//	    bench -n 50000 -keys 10000 -theta 0.99 -writes 0.05
//	netcache-client -switch 127.0.0.1:9000 -servers 2 \
//	    bench -n 50000 -record /tmp/run.trace     # record while benching
//	netcache-client -switch 127.0.0.1:9000 -servers 2 \
//	    replay -trace /tmp/run.trace              # byte-identical replay
//	netcache-client -switch 127.0.0.1:9000 stats
//
// The bench subcommand preloads nothing: run the servers with -preload so
// the dataset exists, then drive the Zipf workload against it and watch the
// switch absorb the head (compare "stats" before and after a controller
// cycle).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"netcache/internal/client"
	"netcache/internal/netproto"
	"netcache/internal/udptrans"
	"netcache/internal/workload"
)

func main() {
	swAddr := flag.String("switch", "127.0.0.1:9000", "switch daemon UDP address")
	servers := flag.Int("servers", 1, "number of storage servers (addresses 1..N)")
	myAddr := flag.Int("addr", 0x8001, "this client's rack address (>= 0x8000)")
	timeout := flag.Duration("timeout", 50*time.Millisecond, "longest wait of one attempt: the cap on the doubling retransmission timeout")
	// Real-UDP deployments share the host (and often a single CPU) with the
	// switch and server processes, so scheduling noise puts the achievable
	// RTT well above the in-process simnet floor. A floor below that noise
	// retransmits queries whose replies are merely late. 5 ms also clears
	// the client's 2 ms poll threshold, so waits park in the scheduler
	// instead of busy-polling the CPU the servers need.
	rtoFloor := flag.Duration("rto-floor", 5*time.Millisecond, "first attempt's retransmission timeout, doubled per retransmission up to -timeout")
	window := flag.Int("window", 1, "pipelining depth: reads issued through GetBatch with this many outstanding (bench subcommand; 1 = one at a time)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	ep, err := udptrans.Dial(*swAddr)
	if err != nil {
		log.Fatalf("netcache-client: %v", err)
	}
	defer ep.Close()

	addrs := make([]netproto.Addr, *servers)
	for i := range addrs {
		addrs[i] = netproto.Addr(i + 1)
	}
	cli, err := client.New(client.Config{
		Addr:      netproto.Addr(*myAddr),
		Partition: client.HashPartitioner(addrs),
		Timeout:   *timeout,
		Retries:   5,
		Policy:    client.Policy{RTOFloor: *rtoFloor},
		Window:    *window,
	})
	if err != nil {
		log.Fatalf("netcache-client: %v", err)
	}
	cli.SetSend(ep.Send)
	// Batched bursts coalesce into batch datagrams on the wire.
	cli.SetSendBatch(ep.SendBatch)
	// The reply reader is started per command: data commands feed the
	// client library; stats feeds its own matcher (one reader per socket).
	startClient := func() { go ep.Run(cli.Receive) }

	switch args[0] {
	case "get":
		startClient()
		need(args, 2)
		v, err := cli.Get(netproto.KeyFromString(args[1]))
		if err != nil {
			log.Fatalf("get: %v", err)
		}
		fmt.Printf("%s\n", v)
	case "put":
		startClient()
		need(args, 3)
		if err := cli.Put(netproto.KeyFromString(args[1]), []byte(args[2])); err != nil {
			log.Fatalf("put: %v", err)
		}
	case "del":
		startClient()
		need(args, 2)
		if err := cli.Delete(netproto.KeyFromString(args[1])); err != nil {
			log.Fatalf("del: %v", err)
		}
	case "bench":
		startClient()
		bench(cli, ep, *window, args[1:])
	case "replay":
		startClient()
		replay(cli, args[1:])
	case "stats":
		stats(ep, netproto.Addr(*myAddr))
	default:
		usage()
	}
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: netcache-client [flags] get|put|del|bench|stats ...")
	os.Exit(2)
}

// bench drives a Zipf read/write mix and reports latency and the switch's
// share of the replies. With -window > 1, reads accumulate into GetBatch
// windows (writes flush the pending window first, preserving order).
func bench(cli *client.Client, ep *udptrans.Endpoint, window int, args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	n := fs.Int("n", 10000, "queries to send")
	keys := fs.Int("keys", 10000, "keyspace size (dataset ids)")
	theta := fs.Float64("theta", 0.99, "Zipf skew (0 = uniform)")
	writes := fs.Float64("writes", 0, "write ratio")
	record := fs.String("record", "", "also record the query stream to this trace file")
	fs.Parse(args)

	zipf, err := workload.NewZipf(*keys, *theta)
	if err != nil {
		log.Fatalf("bench: %v", err)
	}
	var tw *workload.TraceWriter
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatalf("bench: %v", err)
		}
		defer f.Close()
		if tw, err = workload.NewTraceWriter(f); err != nil {
			log.Fatalf("bench: %v", err)
		}
		defer tw.Flush()
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var ok, misses, errs int
	count := func(err error) {
		switch err {
		case nil:
			ok++
		case client.ErrNotFound:
			misses++
		default:
			errs++
		}
	}
	var batch []netproto.Key
	if window > 1 {
		batch = make([]netproto.Key, 0, window)
	}
	flush := func() {
		if len(batch) == 0 {
			return
		}
		_, batchErrs := cli.GetBatch(batch)
		for _, err := range batchErrs {
			count(err)
		}
		batch = batch[:0]
	}
	start := time.Now()
	for i := 0; i < *n; i++ {
		id := zipf.SampleRank(rng)
		q := workload.Query{Key: id, Write: *writes > 0 && rng.Float64() < *writes}
		if tw != nil {
			tw.Append(q)
		}
		key := workload.KeyName(id)
		switch {
		case q.Write:
			flush()
			count(cli.Put(key, workload.ValueFor(id, 64)))
		case window > 1:
			if batch = append(batch, key); len(batch) == window {
				flush()
			}
		default:
			_, err = cli.Get(key)
			count(err)
		}
	}
	flush()
	el := time.Since(start)
	fmt.Printf("bench: %d queries in %v (%.0f qps), %d ok, %d not-found, %d errors\n",
		*n, el.Round(time.Millisecond), float64(*n)/el.Seconds(), ok, misses, errs)
	fmt.Printf("bench: client retransmits=%d timeouts=%d\n",
		cli.Metrics.Retransmit.Value(), cli.Metrics.Timeouts.Value())
}

// replay drives a previously recorded trace against the rack.
func replay(cli *client.Client, args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	trace := fs.String("trace", "", "trace file to replay (required)")
	fs.Parse(args)
	if *trace == "" {
		log.Fatal("replay: -trace is required")
	}
	f, err := os.Open(*trace)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	defer f.Close()
	var ok, misses, errs, n int
	start := time.Now()
	err = workload.Replay(f, func(q workload.Query) error {
		n++
		key := workload.KeyName(q.Key)
		var err error
		if q.Write {
			err = cli.Put(key, workload.ValueFor(q.Key, 64))
		} else {
			_, err = cli.Get(key)
		}
		switch err {
		case nil:
			ok++
		case client.ErrNotFound:
			misses++
		default:
			errs++
		}
		return nil
	})
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	el := time.Since(start)
	fmt.Printf("replay: %d queries in %v (%.0f qps), %d ok, %d not-found, %d errors\n",
		n, el.Round(time.Millisecond), float64(n)/el.Seconds(), ok, misses, errs)
}

// stats queries the switch daemon's counters.
func stats(ep *udptrans.Endpoint, self netproto.Addr) {
	pkt := netproto.Packet{Op: netproto.OpCtlStats, Seq: uint64(time.Now().UnixNano())}
	payload, _ := pkt.Marshal()

	reply := make(chan netproto.Packet, 1)
	go ep.Run(func(frame []byte) {
		fr, err := netproto.DecodeFrame(frame)
		if err != nil {
			return
		}
		var p netproto.Packet
		if netproto.Decode(fr.Payload, &p) == nil && p.Op == netproto.OpCtlStatsReply && p.Seq == pkt.Seq {
			p.Value = append([]byte(nil), p.Value...)
			select {
			case reply <- p:
			default:
			}
		}
	})

	for attempt := 0; attempt < 5; attempt++ {
		ep.Send(netproto.MarshalFrame(udptrans.CtlAddr, self, payload))
		select {
		case p := <-reply:
			if len(p.Value) < 40 {
				log.Fatalf("stats: short reply")
			}
			names := []string{"rx_packets", "tx_packets", "cache_hits", "hot_reports", "cached_items"}
			for i, name := range names {
				fmt.Printf("%-13s %d\n", name, binary.BigEndian.Uint64(p.Value[8*i:]))
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	log.Fatal("stats: no reply from switch")
}
