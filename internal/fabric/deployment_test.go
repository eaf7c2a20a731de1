package fabric

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"netcache/internal/controller"
	"netcache/internal/kvstore"
	"netcache/internal/netproto"
	"netcache/internal/server"
	"netcache/internal/switchcore"
	"netcache/internal/workload"
)

// loadKeys and loadValueSize size the loader tests: enough keys that every
// shard grows several times, and a value length that is not a multiple of
// eight.
const (
	loadKeys      = 5000
	loadValueSize = 37
)

func newLoadDeployment(t *testing.T, racks, width int, replicate bool) *Deployment {
	t.Helper()
	d := NewDeployment(replicate)
	for r := 0; r < racks; r++ {
		if _, err := d.AddRack(fmt.Sprintf("tor%d", r), switchcore.Config{}, width,
			server.Config{Shards: 4}, controller.Config{Seed: int64(r + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

type item struct {
	value   string
	version uint64
}

func contents(s *kvstore.Store) map[netproto.Key]item {
	m := make(map[netproto.Key]item, s.Len())
	s.Range(func(key netproto.Key, value []byte, version uint64) bool {
		m[key] = item{string(value), version}
		return true
	})
	return m
}

// An unreplicated load leaves every store with the items and versions of
// the sequential reference loop below: one Put per id, in id order, into
// the home server's store.
func TestLoadDatasetMatchesSequentialLoad(t *testing.T) {
	for _, racks := range []int{1, 2} {
		t.Run(fmt.Sprintf("racks=%d", racks), func(t *testing.T) {
			d := newLoadDeployment(t, racks, 4, false)
			d.LoadDataset(loadKeys, loadValueSize)

			ref := make([]*kvstore.Store, len(d.Servers))
			for i := range ref {
				ref[i] = kvstore.New(4)
			}
			for id := 0; id < loadKeys; id++ {
				key := workload.KeyName(id)
				ref[d.Partition(key)-1].Put(key, workload.ValueFor(id, loadValueSize))
			}

			for i, srv := range d.Servers {
				got, want := contents(srv.Store()), contents(ref[i])
				if len(got) != len(want) {
					t.Fatalf("server %d holds %d items, the reference %d", i, len(got), len(want))
				}
				for key, w := range want {
					if g, ok := got[key]; !ok || g != w {
						t.Fatalf("server %d key %d: got %+v (present %v), want %+v",
							i, workload.KeyID(key), g, ok, w)
					}
				}
			}
		})
	}
}

// A replicated load leaves each key's primary and backup with the same value
// and version, and every store's version sources ahead of every version it
// holds, so no later write can reuse one. With one server, the ring backup
// is the server itself.
func TestLoadDatasetReplicatedPairsAgree(t *testing.T) {
	for _, width := range []int{4, 1} {
		t.Run(fmt.Sprintf("servers=%d", width), func(t *testing.T) {
			d := newLoadDeployment(t, 1, width, true)
			d.LoadDataset(loadKeys, loadValueSize)

			for id := 0; id < loadKeys; id++ {
				key := workload.KeyName(id)
				home := int(d.Partition(key) - 1)
				pv, pver, pok := d.Servers[home].Store().Get(key)
				bv, bver, bok := d.Servers[d.backupIndex(home)].Store().Get(key)
				if !pok || !bok || pver != bver || !bytes.Equal(pv, bv) {
					t.Fatalf("key %d: primary (%v, v%d) and backup (%v, v%d) disagree", id, pok, pver, bok, bver)
				}
				if !bytes.Equal(pv, workload.ValueFor(id, loadValueSize)) {
					t.Fatalf("key %d: value %x is not the dataset's", id, pv)
				}
			}

			// Put every stored key again, highest version first. The first
			// Put into a shard reaches the key with the shard's highest
			// version, so checking each new version against the key's old
			// one checks every shard's source against all it holds.
			for i, srv := range d.Servers {
				st := srv.Store()
				type held struct {
					key     netproto.Key
					version uint64
				}
				var keys []held
				for key, it := range contents(st) {
					keys = append(keys, held{key, it.version})
				}
				slices.SortFunc(keys, func(a, b held) int { return cmp.Compare(b.version, a.version) })
				for _, k := range keys {
					if ver := st.Put(k.key, []byte("after")); ver <= k.version {
						t.Fatalf("server %d key %d: Put after the load returned v%d, not above the loaded v%d",
							i, workload.KeyID(k.key), ver, k.version)
					}
				}
			}
		})
	}
}
