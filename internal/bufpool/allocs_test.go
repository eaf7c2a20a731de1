//go:build !race

// sync.Pool drops a random share of Puts under the race detector, so the
// allocation floor is measured only by the plain `go test` pass.

package bufpool

import "testing"

// TestAllocsGetPut: a lease and its release allocate nothing once the pool
// is warm — Put stores the array pointer without boxing a slice header.
func TestAllocsGetPut(t *testing.T) {
	Put(Get())
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get()
		b = append(b, 1)
		Put(b)
	})
	if allocs != 0 {
		t.Errorf("Get+Put allocates %.1f/op, want 0", allocs)
	}
}
