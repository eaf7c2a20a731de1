package kvstore

import (
	"runtime"
	"testing"

	"netcache/internal/netproto"
)

// BenchmarkSeqlockGetParallel measures the optimistic read path under
// parallel readers: GetAppend into a reusable per-goroutine buffer, the
// exact calling convention of the server's zero-copy handleGet. Keys are
// pre-built so the loop body is nothing but the store read.
func BenchmarkSeqlockGetParallel(b *testing.B) {
	const nKeys = 100000
	keys := make([]netproto.Key, nKeys)
	for i := range keys {
		keys[i] = key(i)
	}
	s := New(16)
	val := make([]byte, 128)
	for _, k := range keys {
		s.Put(k, val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]byte, 0, netproto.MaxValueSize)
		i := 0
		for pb.Next() {
			if _, _, ok := s.GetAppend(keys[i%nKeys], dst[:0]); !ok {
				b.Fatal("miss")
			}
			i++
		}
	})
	b.ReportMetric(float64(s.ReadRetries())/float64(b.N), "retries/op")
}

// BenchmarkBytesPerKey measures the store's live heap per stored key: 100k
// keys of 64-byte values on 4 shards, heap in use after a GC minus the heap
// before the store was built, so the stored key and value bytes are in the
// figure.
func BenchmarkBytesPerKey(b *testing.B) {
	const nKeys = 100000
	keys := make([]netproto.Key, nKeys)
	for i := range keys {
		keys[i] = key(i)
	}
	val := make([]byte, 64)
	var perKey float64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		s := New(4)
		for _, k := range keys {
			s.Put(k, val)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		perKey = float64(ms.HeapAlloc-before) / nKeys
		runtime.KeepAlive(s)
	}
	b.ReportMetric(perKey, "B/key")
}
