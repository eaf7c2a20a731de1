package main

import (
	"slices"
	"sync"
	"time"

	"netcache/internal/client"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
	"netcache/internal/rack"
	"netcache/internal/server"
	"netcache/internal/simnet"
	"netcache/internal/workload"
)

// nsPerCall times fn(n), which makes n calls, in batches of about batchDur
// and returns the median batch's mean. Isolated calls run hot in cache, so
// they are a floor for what the same call costs inside a workload.
func nsPerCall(fn func(n int)) float64 {
	const batchDur, batches = 4 * time.Millisecond, 15
	n := 64
	for {
		start := time.Now()
		fn(n)
		if el := time.Since(start); el >= batchDur/4 {
			n = max(1, int(float64(n)*float64(batchDur)/float64(el)))
			break
		}
		n *= 4
	}
	means := make([]float64, batches)
	for i := range means {
		start := time.Now()
		fn(n)
		means[i] = float64(time.Since(start)) / float64(n)
	}
	slices.Sort(means)
	return means[batches/2]
}

// stubSwitch forwards every frame to port 1 untouched: what is left of a
// simnet hop when the switch costs nothing.
type stubSwitch struct{}

func (stubSwitch) Process(frame []byte, _ int) ([]dataplane.Emitted, error) {
	return []dataplane.Emitted{{Port: 1, Frame: frame}}, nil
}

func (stubSwitch) ProcessAppend(frame []byte, _ int, out []dataplane.Emitted) ([]dataplane.Emitted, error) {
	return append(out, dataplane.Emitted{Port: 1, Frame: frame}), nil
}

// layerCalls times each layer alone through its exported functions, on the
// same dataset and switch program the workloads use.
func layerCalls() (map[string]float64, error) {
	out := map[string]float64{}
	r, err := rack.New(rack.Config{Servers: 4, Clients: 1, CacheCapacity: cacheCapacity})
	if err != nil {
		return nil, err
	}
	defer r.Switch.Close()
	r.LoadDataset(datasetKeys, valueSize)

	clientAddr, clientPort := rack.ClientAddr(0), len(r.Servers)
	value := workload.ValueFor(1, valueSize)
	buf := make([]byte, 0, 2048)
	frameOf := func(dst, src netproto.Addr, pkt netproto.Packet) []byte {
		f, err := netproto.AppendFramePacket(nil, dst, src, &pkt)
		if err != nil {
			panic(err) // a malformed literal in this file
		}
		return f
	}

	// netproto, on a 128 B reply.
	key := workload.KeyName(1)
	home := r.Partition(key)
	reply := netproto.Packet{Op: netproto.OpGetReply, Seq: 7, Key: key, Value: value}
	replyFrame := frameOf(clientAddr, home, reply)
	out["netproto.encode_ns"] = nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = netproto.AppendFramePacket(buf[:0], clientAddr, home, &reply)
		}
	})
	out["netproto.verify_decode_ns"] = nsPerCall(func(n int) {
		var pkt netproto.Packet
		for i := 0; i < n; i++ {
			if !netproto.VerifyFrame(replyFrame) {
				panic("bad frame")
			}
			fr, _ := netproto.DecodeFrame(replyFrame)
			_ = netproto.Decode(fr.Payload, &pkt)
		}
	})
	out["netproto.reply_ns"] = nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			buf = netproto.ReplyInto(buf[:0], clientAddr, home, netproto.OpGetReply, 7, key)
			buf = append(buf, value...)
			_ = netproto.SealReply(buf)
		}
	})

	// simnet: one hop through a switch that costs nothing.
	hop := simnet.New(stubSwitch{})
	hop.Attach(1, func([]byte) {})
	out["simnet.hop_ns"] = nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			_ = hop.Inject(replyFrame, 0)
		}
	})

	// switchcore: the four frames a workload sends through ProcessAppend.
	hot, written, cold := workload.KeyName(0), workload.KeyName(1), workload.KeyName(datasetKeys/2)
	if err := r.PrePopulate([]netproto.Key{hot, written}); err != nil {
		return nil, err
	}
	process := func(frame []byte, port int) func(n int) {
		return func(n int) {
			var em []dataplane.Emitted
			for i := 0; i < n; i++ {
				em, _ = r.Switch.ProcessAppend(frame, port, em[:0])
				for _, e := range em {
					dataplane.ReleaseFrame(e)
				}
			}
		}
	}
	get := func(k netproto.Key) []byte {
		return frameOf(r.Partition(k), clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: k})
	}
	hit := process(get(hot), clientPort)
	out["switchcore.hit_ns"] = nsPerCall(hit)
	out["switchcore.miss_ns"] = nsPerCall(process(get(cold), clientPort))
	coldHome := r.Partition(cold)
	out["switchcore.reply_ns"] = nsPerCall(process(
		frameOf(clientAddr, coldHome, netproto.Packet{Op: netproto.OpGetReply, Seq: 1, Key: cold, Value: value}),
		int(coldHome)-1))
	out["switchcore.write_ns"] = nsPerCall(process(
		frameOf(r.Partition(written), clientAddr, netproto.Packet{Op: netproto.OpPut, Seq: 1, Key: written, Value: value}),
		clientPort))
	one := nsPerCall(hit)
	two := nsPerCall(func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); hit(n) }()
		}
		wg.Wait()
	})
	out["switchcore.par2_speedup"] = 2 * one / two

	// kvstore: server 0's loaded partition (a quarter of the dataset).
	store := r.Servers[0].Store()
	var owned []netproto.Key
	for id := 0; len(owned) < 1024; id++ {
		if k := workload.KeyName(id); r.Partition(k) == rack.ServerAddr(0) {
			owned = append(owned, k)
		}
	}
	out["kvstore.getappend_ns"] = nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			buf, _, _ = store.GetAppend(owned[i%len(owned)], buf[:0])
		}
	})
	out["kvstore.put_ns"] = nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			store.Put(owned[i%len(owned)], value)
		}
	})

	// server: Receive to a captured send, on a server of its own holding
	// the same partition. Writes need a rising SEQ per key or the replay
	// guard acks them without touching the store.
	newServer := func(cfg server.Config) *server.Server {
		cfg.Shards = 4
		srv := server.New(cfg)
		for _, k := range owned {
			srv.Store().Put(k, value)
		}
		return srv
	}
	srv := newServer(server.Config{Addr: 1})
	srv.SetSend(func([]byte) {})
	getFrames := make([][]byte, len(owned))
	for i, k := range owned {
		getFrames[i] = frameOf(1, clientAddr, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: k})
	}
	out["server.get_ns"] = nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			srv.Receive(getFrames[i%len(getFrames)])
		}
	})
	var seq uint64
	puts := func(srv *server.Server) func(n int) {
		put := netproto.Packet{Op: netproto.OpPut, Key: owned[0], Value: value}
		return func(n int) {
			for i := 0; i < n; i++ {
				seq++
				put.Seq, put.Key = seq, owned[i%len(owned)]
				buf, _ = netproto.AppendFramePacket(buf[:0], 1, clientAddr, &put)
				srv.Receive(buf)
			}
		}
	}
	out["server.put_ns"] = nsPerCall(puts(srv)) - out["netproto.encode_ns"]

	// Replicated put: primary and backup wired send-to-Receive, so the
	// figure is the storage tier's whole share of replicate-before-ack.
	primary := newServer(server.Config{Addr: 1, PartitionOf: func(netproto.Key) netproto.Addr { return 1 }})
	backup := newServer(server.Config{Addr: 2})
	primary.SetReplica(1, 2)
	primary.SetSend(func(frame []byte) {
		if netproto.Op(frame[netproto.FrameOpOff]) == netproto.OpReplicate {
			backup.Receive(frame)
		}
	})
	backup.SetSend(primary.Receive)
	out["server.repl_put_ns"] = nsPerCall(puts(primary)) - out["netproto.encode_ns"]

	// client: Get with send looped straight back into Receive. The reply
	// has to carry the request's SEQ, so it is built per call; that cost is
	// timed alone and taken off.
	cl, err := client.New(client.Config{Addr: clientAddr, Partition: r.Partition})
	if err != nil {
		return nil, err
	}
	answer := func(frame []byte) []byte {
		var req netproto.Packet
		fr, _ := netproto.DecodeFrame(frame)
		_ = netproto.Decode(fr.Payload, &req)
		buf = netproto.ReplyInto(buf[:0], fr.Src, fr.Dst, netproto.OpGetReply, req.Seq, req.Key)
		buf = append(buf, value...)
		_ = netproto.SealReply(buf)
		return buf
	}
	cl.SetSend(func(frame []byte) { cl.Receive(answer(frame)) })
	request := get(hot)
	loop := nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.Get(hot); err != nil {
				panic(err)
			}
		}
	})
	out["client.self_ns"] = loop - nsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			answer(request)
		}
	})
	return out, nil
}
