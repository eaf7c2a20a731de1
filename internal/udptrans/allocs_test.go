//go:build !race

// testing.AllocsPerRun is unreliable under the race detector (its
// instrumentation allocates), so this file is compiled out of `go test -race`.

package udptrans

import "testing"

// TestAllocsUDPBurst pins the daemon's whole share of a 32-Get window — one
// batch datagram in, source learned, 32 frames through the pipeline, hit
// replies and forwarded misses packed per destination and written to the
// socket — at exactly zero allocations. One alloc/op here is a buffer, an
// emission slice, a closure or a *net.UDPAddr that came back per datagram.
func TestAllocsUDPBurst(t *testing.T) {
	w, datagram, from := burstFixture(t)
	if allocs := testing.AllocsPerRun(200, func() { w.b.dispatch(datagram, from, w.handle) }); allocs != 0 {
		t.Errorf("a warmed 32-Get burst allocates %.1f/op, want 0", allocs)
	}
}
