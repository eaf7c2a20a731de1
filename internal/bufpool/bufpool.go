// Package bufpool provides the frame buffer pool behind the zero-allocation
// packet path. The switch deparser building a reply and the server encoding
// a reply or acknowledgment lease a buffer here, and whoever delivers the
// frame releases it once it has left their hands. The client leases nothing:
// each of its call slots owns its request buffer.
//
// The ownership discipline is deliberately asymmetric, and that asymmetry is
// the safety property of the whole design:
//
//   - A buffer returns to the pool ONLY through an explicit Put. A consumer
//     that forgets to release simply strands the buffer for the garbage
//     collector — the pool stays empty and the next Get falls back to make.
//     Forgetting a release therefore costs an allocation, never correctness.
//   - Releasing a buffer that someone else still references is the only way
//     to corrupt data. Release sites are therefore few, explicit, and
//     documented (see DESIGN.md, "Memory & batching model").
//
// The pool is a sync.Pool of *[FrameCap]byte, not of []byte: Put converts the
// slice back to a pointer to its backing array, and a pointer goes into an
// interface without boxing, so Put does not allocate the very garbage the
// pool exists to avoid. sync.Pool keeps a private slot and a lock-free shard
// per P, so a lease and its release take no runtime lock (a buffered channel
// took one per operation). Idle buffers are freed by the garbage collector
// after two cycles rather than capped at a fixed count.
package bufpool

import "sync"

// FrameCap is the capacity of every pooled frame buffer. It matches the
// transport's maximum datagram size so a pooled buffer can hold any frame
// the system can carry.
const FrameCap = 2048

var frames = sync.Pool{New: func() any { return new([FrameCap]byte) }}

// Get leases a zero-length buffer with capacity FrameCap. The caller owns it
// until Put; appending beyond FrameCap is legal (append reallocates) but such
// a grown buffer is discarded on Put.
func Get() []byte {
	return frames.Get().(*[FrameCap]byte)[:0]
}

// Put returns a leased buffer to the pool. The caller must not touch b after
// the call: the next Get may hand it to another goroutine. A buffer whose
// capacity is not exactly FrameCap (a lease that append reallocated, or a
// foreign slice) is dropped for the GC.
func Put(b []byte) {
	if cap(b) != FrameCap {
		return
	}
	frames.Put((*[FrameCap]byte)(b[:FrameCap]))
}
