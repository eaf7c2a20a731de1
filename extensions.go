package netcache

// Extensions beyond the paper's restricted interface, implementing the
// client-side techniques §5 sketches:
//
//   - variable-length keys, hashed onto the fixed 16-byte key with the
//     original key's fingerprint stored alongside the value so hash
//     collisions are detected (§5 "Restricted key-value interface");
//   - values larger than 128 bytes, split into chunks retrieved with
//     multiple queries (§5 "For large items that do not fit in one packet,
//     one can always divide an item into smaller chunks");
//   - switch reboot with an empty cache (§3 "if the switch fails, operators
//     can simply reboot the switch with an empty cache ... they will refill
//     rapidly").

import (
	"encoding/binary"
	"errors"
	"fmt"

	"netcache/internal/netproto"
	"netcache/internal/sketch"
)

// ErrHashCollision reports that the value found under a hashed key belongs
// to a different original key. With a 128-bit primary hash plus a 64-bit
// stored fingerprint this is cryptographically negligible; the check exists
// because the paper requires clients to verify (§5).
var ErrHashCollision = errors.New("netcache: hash collision detected")

// varOverhead is the per-value metadata of the variable-key encoding:
// 1 byte of original-key length + 8 bytes of fingerprint.
const varOverhead = 9

// MaxVarValueSize is the largest value storable through VarClient.
const MaxVarValueSize = netproto.MaxValueSize - varOverhead

// VarClient stores items under arbitrary-length keys by hashing them onto
// the fixed key type and verifying a stored fingerprint on every read.
type VarClient struct {
	c *Client
}

// VarClient returns a variable-length-key view over client handle i.
func (r *Rack) VarClient(i int) *VarClient { return &VarClient{c: r.Client(i)} }

func varFingerprint(raw []byte) uint64 {
	return sketch.Hash64(raw, 0x5851F42D4C957F2D)
}

func varEncode(raw, value []byte) []byte {
	out := make([]byte, 0, varOverhead+len(value))
	out = append(out, byte(len(raw)))
	out = binary.BigEndian.AppendUint64(out, varFingerprint(raw))
	return append(out, value...)
}

func varDecode(raw, stored []byte) ([]byte, error) {
	if len(stored) < varOverhead {
		return nil, fmt.Errorf("netcache: value too short for variable-key envelope")
	}
	if int(stored[0]) != len(raw)&0xFF ||
		binary.BigEndian.Uint64(stored[1:9]) != varFingerprint(raw) {
		return nil, ErrHashCollision
	}
	return stored[varOverhead:], nil
}

// Put stores value under an arbitrary-length key.
func (vc *VarClient) Put(rawKey, value []byte) error {
	if len(rawKey) == 0 {
		return fmt.Errorf("netcache: empty key")
	}
	if len(value) == 0 || len(value) > MaxVarValueSize {
		return fmt.Errorf("netcache: value size %d out of (0,%d]", len(value), MaxVarValueSize)
	}
	return vc.c.Put(HashKey(rawKey), varEncode(rawKey, value))
}

// Get fetches the value stored under an arbitrary-length key, verifying the
// stored fingerprint against the original key.
func (vc *VarClient) Get(rawKey []byte) ([]byte, error) {
	stored, err := vc.c.Get(HashKey(rawKey))
	if err != nil {
		return nil, err
	}
	return varDecode(rawKey, stored)
}

// Delete removes the item stored under an arbitrary-length key.
func (vc *VarClient) Delete(rawKey []byte) error {
	return vc.c.Delete(HashKey(rawKey))
}

// chunk layout for ChunkedClient: chunk 0 carries a 4-byte total length
// followed by data; subsequent chunks are pure data under derived keys.
const (
	chunkHeader   = 4
	chunk0Payload = netproto.MaxValueSize - chunkHeader
	chunkPayload  = netproto.MaxValueSize
)

// MaxChunkedValueSize bounds ChunkedClient values; generous enough for the
// MTU-scale items §5 discusses.
const MaxChunkedValueSize = 1 << 20

// ChunkedClient stores values of arbitrary size (up to MaxChunkedValueSize)
// by splitting them across multiple items, the multi-packet retrieval of
// §5. Hot chunks are cached by the switch like any other item. A multi-
// chunk Put is not atomic with respect to concurrent readers of the same
// key — the paper's interface has no multi-key transactions to build on.
type ChunkedClient struct {
	c *Client
}

// ChunkedClient returns a large-value view over client handle i.
func (r *Rack) ChunkedClient(i int) *ChunkedClient { return &ChunkedClient{c: r.Client(i)} }

func chunkKey(rawKey []byte, i int) Key {
	if i == 0 {
		return HashKey(rawKey)
	}
	var suffix [8]byte
	binary.BigEndian.PutUint64(suffix[:], uint64(i))
	return HashKey(append(append([]byte(nil), rawKey...), suffix[:]...))
}

// chunkCount returns how many chunks a value of n bytes needs.
func chunkCount(n int) int {
	if n <= chunk0Payload {
		return 1
	}
	rest := n - chunk0Payload
	return 1 + (rest+chunkPayload-1)/chunkPayload
}

// Put stores a value of up to MaxChunkedValueSize bytes.
func (cc *ChunkedClient) Put(rawKey, value []byte) error {
	if len(rawKey) == 0 {
		return fmt.Errorf("netcache: empty key")
	}
	if len(value) == 0 || len(value) > MaxChunkedValueSize {
		return fmt.Errorf("netcache: value size %d out of (0,%d]", len(value), MaxChunkedValueSize)
	}
	// Remember the previous chunk count so a shrinking overwrite can
	// garbage-collect the tail chunks it no longer references.
	oldChunks := 0
	if old, err := cc.c.Get(chunkKey(rawKey, 0)); err == nil && len(old) >= chunkHeader {
		oldChunks = chunkCount(int(binary.BigEndian.Uint32(old)))
	}

	// Tail chunks first so a concurrent reader that sees the new chunk 0
	// finds every tail it references.
	n := chunkCount(len(value))
	off := len(value)
	for i := n - 1; i >= 1; i-- {
		start := chunk0Payload + (i-1)*chunkPayload
		if err := cc.c.Put(chunkKey(rawKey, i), value[start:off]); err != nil {
			return fmt.Errorf("netcache: chunk %d: %w", i, err)
		}
		off = start
	}
	head := make([]byte, 0, chunkHeader+off)
	head = binary.BigEndian.AppendUint32(head, uint32(len(value)))
	head = append(head, value[:off]...)
	if err := cc.c.Put(chunkKey(rawKey, 0), head); err != nil {
		return err
	}
	for i := n; i < oldChunks; i++ {
		if err := cc.c.Delete(chunkKey(rawKey, i)); err != nil {
			return fmt.Errorf("netcache: stale chunk %d: %w", i, err)
		}
	}
	return nil
}

// Get reassembles a chunked value.
func (cc *ChunkedClient) Get(rawKey []byte) ([]byte, error) {
	head, err := cc.c.Get(chunkKey(rawKey, 0))
	if err != nil {
		return nil, err
	}
	if len(head) < chunkHeader {
		return nil, fmt.Errorf("netcache: malformed chunk header")
	}
	total := int(binary.BigEndian.Uint32(head))
	if total > MaxChunkedValueSize {
		return nil, fmt.Errorf("netcache: chunk header claims %d bytes", total)
	}
	out := make([]byte, 0, total)
	out = append(out, head[chunkHeader:]...)
	for i := 1; len(out) < total; i++ {
		part, err := cc.c.Get(chunkKey(rawKey, i))
		if err != nil {
			return nil, fmt.Errorf("netcache: chunk %d: %w", i, err)
		}
		out = append(out, part...)
	}
	if len(out) != total {
		return nil, fmt.Errorf("netcache: reassembled %d bytes, header says %d", len(out), total)
	}
	return out, nil
}

// Delete removes all chunks of a value.
func (cc *ChunkedClient) Delete(rawKey []byte) error {
	head, err := cc.c.Get(chunkKey(rawKey, 0))
	if err == ErrNotFound {
		return nil
	}
	if err != nil {
		return err
	}
	total := 0
	if len(head) >= chunkHeader {
		total = int(binary.BigEndian.Uint32(head))
	}
	for i := chunkCount(total) - 1; i >= 0; i-- {
		if err := cc.c.Delete(chunkKey(rawKey, i)); err != nil {
			return err
		}
	}
	return nil
}

// RebootSwitch power-cycles the ToR switch (§3): its cache and statistics
// are wiped and its routes re-provisioned, so the rack keeps serving from
// the storage servers while the controller's next Tick reinstalls the
// entries it tracks. Returns the number of entries the switch held.
func (r *Rack) RebootSwitch() int {
	n := r.r.Switch.CacheLen()
	if err := r.r.RebootSwitch(); err != nil {
		// Unreachable: the reboot re-provisions only routes the switch
		// held before it, which fit the emptied table.
		panic(err)
	}
	return n
}

// CrashServer crashes storage server i. Without Replicate its partition
// times out until RestartServer; with Replicate the controller's failure
// detector declares it dead after HeartbeatMisses Ticks and fails the
// partition over to the backup — hot keys keep serving from the switch
// cache throughout.
func (r *Rack) CrashServer(i int) { r.r.CrashServer(i) }

// RestartServer brings a crashed server back (wipe discards its store).
// With Replicate the node rejoins as a backup and catches up via the
// anti-entropy resync over the following Ticks before it is promotable.
func (r *Rack) RestartServer(i int, wipe bool) { r.r.RestartServer(i, wipe) }

// PrimaryServer returns the index of the server currently serving key's
// partition — its home server, or the promoted backup after a failover.
func (r *Rack) PrimaryServer(key Key) int {
	for i := range r.r.Servers {
		if r.r.Servers[i] == r.r.PrimaryOf(key) {
			return i
		}
	}
	return -1
}
