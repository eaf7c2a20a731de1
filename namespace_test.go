package netcache

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// The metric namespace is an interface: balance.*, /metrics and the
// telemetry plane read these names. Pin the whole sorted set of counter,
// gauge and histogram names for a replicated rack and a leaf-spine fabric,
// so a change to how either deployment registers its sources shows up here.
func TestSnapshotNamespaceGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap func(t *testing.T) Snapshot
	}{
		{"rack_replicated", func(t *testing.T) Snapshot {
			r, err := New(Config{Servers: 2, Clients: 2, CacheCapacity: 8, Replicate: true})
			if err != nil {
				t.Fatal(err)
			}
			r.LoadDataset(20, 16)
			for i := 0; i < 2; i++ {
				exercise(t, r.Client(i), 3*i)
			}
			r.Tick()
			return r.Snapshot()
		}},
		{"leafspine_2x2", func(t *testing.T) Snapshot {
			fb, err := NewLeafSpine(LeafSpineConfig{Racks: 2, ServersPerRack: 2, Clients: 2, SpineCache: 8, TorCache: 8})
			if err != nil {
				t.Fatal(err)
			}
			fb.LoadDataset(20, 16)
			for i := 0; i < 2; i++ {
				exercise(t, fb.Client(i), 3*i)
			}
			fb.Tick()
			return fb.Snapshot()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := tc.snap(t)
			var b strings.Builder
			for _, section := range []struct {
				kind  string
				names []string
			}{
				{"counter", snap.Keys()},
				{"gauge", sortedNames(snap.Gauges)},
				{"histogram", snap.HistKeys()},
			} {
				for _, n := range section.names {
					b.WriteString(section.kind + " " + n + "\n")
				}
			}
			path := "testdata/namespace_" + tc.name + ".golden"
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("metric namespace differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}

// exercise issues one Get, Put and Delete, on keys base..base+2, so every
// per-op source has data.
func exercise(t *testing.T, cl *Client, base int) {
	t.Helper()
	if _, err := cl.Get(KeyName(base)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(KeyName(base+1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(KeyName(base + 2)); err != nil {
		t.Fatal(err)
	}
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
