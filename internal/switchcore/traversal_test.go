package switchcore

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"netcache/internal/cachemem"
	"netcache/internal/dataplane"
	"netcache/internal/netproto"
)

var updateTraversal = flag.Bool("update", false, "rewrite testdata/traversal.golden")

// traversal golden addresses and ports: a client, an owning server, and a
// replica server on a second pipe.
const (
	tgClient     netproto.Addr = 100
	tgServer     netproto.Addr = 200
	tgReplica    netproto.Addr = 201
	tgClientPort               = 2
	tgServerPort               = 1
)

// newTraversalSwitch builds one switch of the traversal golden, provisioned
// with the golden's routes and cached keys.
func newTraversalSwitch(t *testing.T) *Switch {
	t.Helper()
	cfg := TestConfig()
	cfg.SampleRate = 0.5
	cfg.SampleSeed = 7
	cfg.HotThreshold = 3
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replicaPort := cfg.Chip.PortsPerPipe + 1
	mustInstall(t, sw.InstallRoute(tgClient, tgClientPort))
	mustInstall(t, sw.InstallRoute(tgServer, tgServerPort))
	mustInstall(t, sw.InstallRoute(tgReplica, replicaPort))
	alloc, err := cachemem.New(sw.AllocatorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		key  string
		size int
	}{{"A", 40}, {"B", 20}, {"C", 20}, {"D", 8}, {"E", 8}} {
		p, err := alloc.Insert(tgKey(c.key), c.size)
		if err != nil {
			t.Fatal(err)
		}
		mustInstall(t, sw.InstallCacheEntry(CacheEntry{
			Key: tgKey(c.key), Placement: p, KeyIndex: i, ServerPort: tgServerPort,
			Value: diffValue(i, c.size), Version: 10,
		}))
	}
	return sw
}

// drainLines renders the digests sw queued since the last drain.
func drainLines(sw *Switch) (lines []string) {
	sw.DrainEvents(func(r HotReport) {
		lines = append(lines, fmt.Sprintf("hot %x freq=%d", r.Key[:], r.Freq))
	}, func(r OverflowReport) {
		lines = append(lines, fmt.Sprintf("overflow %x size=%d", r.Key[:], r.NewSize))
	})
	return lines
}

func tgKey(name string) netproto.Key { return netproto.KeyFromString("traversal:" + name) }

// TestTraversalGolden pins the interpreted traversal of every kind of frame
// the switch sees, frame by frame: the TraceQuery text, the emissions, the
// pipeline counters and the digests delivered to the controller. Three
// switches take the same frames: one through the interpreter by TraceQuery,
// one through the interpreter by Pipeline().ProcessAppend, and one through
// the entry point Switch.ProcessAppend, compiled paths first. The last two
// must agree with the first on everything but the trace; the golden holds
// the result. Rewrite it with -update only for a change meant to alter the
// traversal.
func TestTraversalGolden(t *testing.T) {
	traced, plain, entry := newTraversalSwitch(t), newTraversalSwitch(t), newTraversalSwitch(t)
	others := []struct {
		via     string
		sw      *Switch
		process func([]byte, int, []dataplane.Emitted) ([]dataplane.Emitted, error)
	}{
		{"Pipeline().ProcessAppend", plain, plain.Pipeline().ProcessAppend},
		{"ProcessAppend", entry, entry.ProcessAppend},
	}
	get := func(k string) []byte {
		return mkFrame(t, tgServer, tgClient, netproto.Packet{Op: netproto.OpGet, Seq: 1, Key: tgKey(k)})
	}
	corrupt := get("A")
	corrupt[len(corrupt)-1] ^= 0x40
	frames := []struct {
		name   string
		frame  []byte
		inPort int
	}{
		{"get hit valid", get("A"), tgClientPort},
		{"put to cached key", mkFrame(t, tgServer, tgClient,
			netproto.Packet{Op: netproto.OpPut, Seq: 11, Key: tgKey("B"), Value: []byte("fresh")}), tgClientPort},
		{"get hit invalidated", get("B"), tgClientPort},
		{"delete to cached key", mkFrame(t, tgServer, tgClient,
			netproto.Packet{Op: netproto.OpDelete, Seq: 12, Key: tgKey("D")}), tgClientPort},
		{"get miss cold", get("cold"), tgClientPort},
		{"get miss cold again", get("cold"), tgClientPort},
		{"get miss hot 1", get("hot"), tgClientPort},
		{"get miss hot 2", get("hot"), tgClientPort},
		{"get miss hot 3", get("hot"), tgClientPort},
		{"get miss hot 4", get("hot"), tgClientPort},
		{"get miss hot 5", get("hot"), tgClientPort},
		{"get miss hot 6", get("hot"), tgClientPort},
		{"get miss hot 7", get("hot"), tgClientPort},
		{"get miss hot 8", get("hot"), tgClientPort},
		{"get miss no route", mkFrame(t, 999, tgClient,
			netproto.Packet{Op: netproto.OpGet, Seq: 2, Key: tgKey("cold")}), tgClientPort},
		{"putcached from upstream", mkFrame(t, tgServer, tgClient,
			netproto.Packet{Op: netproto.OpPutCached, Seq: 13, Key: tgKey("E"), Value: []byte("up")}), tgClientPort},
		{"deletecached from upstream", mkFrame(t, tgServer, tgClient,
			netproto.Packet{Op: netproto.OpDeleteCached, Seq: 14, Key: tgKey("E")}), tgClientPort},
		{"cache update accepted", mkFrame(t, tgServer, tgServer,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 20, Key: tgKey("B"), Value: diffValue(9, 30)}), tgServerPort},
		{"get hit after update", get("B"), tgClientPort},
		{"cache update stale", mkFrame(t, tgServer, tgServer,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 15, Key: tgKey("B"), Value: diffValue(8, 16)}), tgServerPort},
		{"cache update oversize", mkFrame(t, tgServer, tgServer,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 30, Key: tgKey("C"), Value: diffValue(7, 60)}), tgServerPort},
		{"cache update foreign port", mkFrame(t, tgServer, tgServer,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 40, Key: tgKey("A"), Value: diffValue(6, 8)}), tgClientPort},
		{"cache update uncached", mkFrame(t, tgServer, tgServer,
			netproto.Packet{Op: netproto.OpCacheUpdate, Seq: 41, Key: tgKey("cold"), Value: diffValue(5, 8)}), tgServerPort},
		{"get hit after refused updates", get("A"), tgClientPort},
		{"get reply", mkFrame(t, tgClient, tgServer,
			netproto.Packet{Op: netproto.OpGetReply, Seq: 1, Key: tgKey("cold"), Value: []byte("cold value")}), tgServerPort},
		{"put reply", mkFrame(t, tgClient, tgServer,
			netproto.Packet{Op: netproto.OpPutReply, Seq: 11, Key: tgKey("B")}), tgServerPort},
		{"replicate", mkFrame(t, tgReplica, tgServer,
			netproto.Packet{Op: netproto.OpReplicate, Seq: 11, Key: tgKey("B"), Value: []byte("fresh")}), tgServerPort},
		{"replicate ack", mkFrame(t, tgServer, tgReplica,
			netproto.Packet{Op: netproto.OpReplicateAck, Seq: 11, Key: tgKey("B")}), tgServerPort},
		{"non-netcache frame", netproto.MarshalFrame(tgServer, tgClient, []byte("not a netcache packet")), tgClientPort},
		{"corrupt frame", corrupt, tgClientPort},
	}

	var b strings.Builder
	out := make([]dataplane.Emitted, 0, 1)
	for _, f := range frames {
		em, tr, err := traced.TraceQuery(f.frame, f.inPort)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got, st, digests := emissionLines(em), traced.Pipeline().Stats(), drainLines(traced)
		fmt.Fprintf(&b, "== %s (port %d)\n%s%spipeline %+v\n", f.name, f.inPort, tr, got, st)
		for _, r := range digests {
			fmt.Fprintf(&b, "digest %s\n", r)
		}

		for _, o := range others {
			out, err = o.process(f.frame, f.inPort, out[:0])
			if err != nil {
				t.Fatalf("%s via %s: %v", f.name, o.via, err)
			}
			if oe := emissionLines(out); oe != got {
				t.Errorf("%s: %s emitted\n%s\nTraceQuery emitted\n%s", f.name, o.via, oe, got)
			}
			for _, e := range out {
				dataplane.ReleaseFrame(e)
			}
			if ost := o.sw.Pipeline().Stats(); !reflect.DeepEqual(st, ost) {
				t.Errorf("%s: pipeline counters via %s diverge: %+v vs %+v", f.name, o.via, ost, st)
			}
			if od := drainLines(o.sw); !reflect.DeepEqual(digests, od) {
				t.Errorf("%s: digests via %s diverge: %v vs %v", f.name, o.via, od, digests)
			}
		}
	}

	const path = "testdata/traversal.golden"
	if *updateTraversal {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("traversal differs from %s:\n%s", path, firstDiff(got, string(want)))
	}
}

func emissionLines(em []dataplane.Emitted) string {
	var b strings.Builder
	for _, e := range em {
		fmt.Fprintf(&b, "emit port %d %x\n", e.Port, e.Frame)
	}
	return b.String()
}

// firstDiff names the first line on which two renderings differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n--- got\n%s\n--- want\n%s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
