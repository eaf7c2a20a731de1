package bufpool

import (
	"sync"
	"testing"
)

func TestGetLeaseShape(t *testing.T) {
	for i := 0; i < 4; i++ {
		b := Get()
		if len(b) != 0 || cap(b) != FrameCap {
			t.Fatalf("lease %d: len %d cap %d, want 0 and %d", i, len(b), cap(b), FrameCap)
		}
		// A released lease that was written comes back empty.
		b = append(b, 1, 2, 3)
		Put(b)
	}
}

// An undersized slice (a foreign buffer, or a lease re-sliced from an offset)
// never enters the pool: every later lease still has the full capacity.
func TestPutDropsUndersized(t *testing.T) {
	small := make([]byte, 0, FrameCap-1)
	lease := Get()
	for i := 0; i < 8; i++ {
		Put(small)
		Put(lease[1:1])
		if b := Get(); cap(b) != FrameCap {
			t.Fatalf("Get after undersized Put: cap %d, want %d", cap(b), FrameCap)
		}
	}
}

// A lease that append reallocated past FrameCap is legal to Put; the grown
// buffer is dropped, and no later lease aliases it or comes back oversized.
func TestPutDropsGrown(t *testing.T) {
	grown := append(Get(), make([]byte, FrameCap+1)...)
	if cap(grown) <= FrameCap {
		t.Fatalf("append did not grow the lease: cap %d", cap(grown))
	}
	Put(grown)
	for i := 0; i < 8; i++ {
		b := Get()
		if cap(b) != FrameCap {
			t.Fatalf("Get after grown Put: cap %d, want %d", cap(b), FrameCap)
		}
		if &b[:1][0] == &grown[0] {
			t.Fatal("Get handed out the grown buffer")
		}
	}
}

// Concurrent leases are exclusive: each goroutine fills its whole lease with
// its own byte and checks it before releasing. Under -race a buffer handed to
// two holders at once is a reported race; without it, a mismatched byte.
func TestConcurrentGetPut(t *testing.T) {
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b := Get()[:FrameCap]
				for j := range b {
					b[j] = tag
				}
				for j := range b {
					if b[j] != tag {
						t.Errorf("lease shared: byte %d = %d, want %d", j, b[j], tag)
						return
					}
				}
				Put(b)
			}
		}(byte(g + 1))
	}
	wg.Wait()
}
