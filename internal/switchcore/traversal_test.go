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

// traversalSwitch is one interpreter-only switch of the traversal golden,
// provisioned with the golden's routes and cached keys.
type traversalSwitch struct {
	sw      *Switch
	reports []string
}

// traversal golden addresses and ports: a client, an owning server, and a
// replica server on a second pipe.
const (
	tgClient     netproto.Addr = 100
	tgServer     netproto.Addr = 200
	tgReplica    netproto.Addr = 201
	tgClientPort               = 2
	tgServerPort               = 1
)

func newTraversalSwitch(t *testing.T) *traversalSwitch {
	t.Helper()
	cfg := TestConfig()
	cfg.SampleRate = 0.5
	cfg.SampleSeed = 7
	cfg.DisableFastPath = true
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Close)
	sw.SetHotThreshold(3)
	ts := &traversalSwitch{sw: sw}
	sw.OnEvents(func(r HotReport) {
		ts.reports = append(ts.reports, fmt.Sprintf("hot %x freq=%d", r.Key[:], r.Freq))
	}, func(r OverflowReport) {
		ts.reports = append(ts.reports, fmt.Sprintf("overflow %x size=%d", r.Key[:], r.NewSize))
	})
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
	return ts
}

func tgKey(name string) netproto.Key { return netproto.KeyFromString("traversal:" + name) }

// TestTraversalGolden pins the interpreted traversal of every kind of frame
// the switch sees, frame by frame: the TraceQuery text, the emissions, every
// table's hit/miss counts, the pipeline counters and the digests delivered
// to the controller. Two interpreter-only switches take the same frames, one
// through TraceQuery and one through ProcessAppend, and must agree on
// everything but the trace; the golden holds the result. Rewrite it with
// -update only for a change meant to alter the traversal.
func TestTraversalGolden(t *testing.T) {
	traced, plain := newTraversalSwitch(t), newTraversalSwitch(t)
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
		em, tr, err := traced.sw.TraceQuery(f.frame, f.inPort)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		out, err = plain.sw.ProcessAppend(f.frame, f.inPort, out[:0])
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		traced.sw.SyncDigests()
		plain.sw.SyncDigests()

		fmt.Fprintf(&b, "== %s (port %d)\n%s", f.name, f.inPort, tr)
		got := emissionLines(em)
		if pl := emissionLines(out); pl != got {
			t.Errorf("%s: ProcessAppend emitted\n%s\nTraceQuery emitted\n%s", f.name, pl, got)
		}
		b.WriteString(got)
		for _, e := range out {
			dataplane.ReleaseFrame(e)
		}
		got = tableLines(traced.sw)
		if pl := tableLines(plain.sw); pl != got {
			t.Errorf("%s: table counters diverge:\n%s\nvs\n%s", f.name, pl, got)
		}
		b.WriteString(got)
		st := traced.sw.Pipeline().Stats()
		if pst := plain.sw.Pipeline().Stats(); !reflect.DeepEqual(st, pst) {
			t.Errorf("%s: pipeline counters diverge: %+v vs %+v", f.name, pst, st)
		}
		fmt.Fprintf(&b, "pipeline %+v\n", st)
		if !reflect.DeepEqual(traced.reports, plain.reports) {
			t.Errorf("%s: digests diverge: %v vs %v", f.name, plain.reports, traced.reports)
		}
		for _, r := range traced.reports {
			fmt.Fprintf(&b, "digest %s\n", r)
		}
		traced.reports, plain.reports = nil, nil
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

// tableLines renders every table's hit/miss counts, ingress then egress.
func tableLines(sw *Switch) string {
	var b strings.Builder
	for _, g := range []dataplane.Gress{dataplane.Ingress, dataplane.Egress} {
		fmt.Fprintf(&b, "%s", g)
		for _, tab := range sw.Pipeline().Program().Tables(g) {
			fmt.Fprintf(&b, " %s=%d/%d", tab.Name(), tab.Hits(), tab.Misses())
		}
		b.WriteByte('\n')
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
