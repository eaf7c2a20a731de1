package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"netcache/internal/netproto"
)

// Query is one generated key-value operation.
type Query struct {
	// Key is the abstract key ID in [0, Keys).
	Key int
	// Write is true for Put, false for Get.
	Write bool
}

// Dist selects keys. Implementations are not safe for concurrent use.
type Dist interface {
	// Sample draws a key ID.
	Sample(rng *rand.Rand) int
	// Prob returns the probability of drawing the given key ID.
	Prob(key int) float64
}

// ZipfDist draws keys Zipf-distributed through a (shared, possibly mutating)
// popularity mapping.
type ZipfDist struct {
	Z   *Zipf
	Pop *Popularity
}

// Sample draws a rank from the Zipf law and maps it to a key.
func (d ZipfDist) Sample(rng *rand.Rand) int {
	return d.Pop.KeyAt(d.Z.SampleRank(rng))
}

// Prob returns the key's current probability mass.
func (d ZipfDist) Prob(key int) float64 {
	return d.Z.Prob(d.Pop.RankOf(key))
}

// UniformDist draws keys uniformly from [0, N).
type UniformDist struct{ N int }

// Sample draws a uniform key.
func (d UniformDist) Sample(rng *rand.Rand) int { return rng.Intn(d.N) }

// Prob returns 1/N for in-range keys.
func (d UniformDist) Prob(key int) float64 {
	if key < 0 || key >= d.N {
		return 0
	}
	return 1 / float64(d.N)
}

// GeneratorConfig assembles a query stream.
type GeneratorConfig struct {
	// Reads selects keys for Get queries.
	Reads Dist
	// Writes selects keys for Put queries; may be nil when WriteRatio
	// is 0.
	Writes Dist
	// WriteRatio is the fraction of queries that are writes, in [0,1].
	WriteRatio float64
	// Seed seeds the stream's private PRNG.
	Seed int64
}

// Generator produces a deterministic query stream from its config. It is the
// Go analogue of the paper's DPDK client generator, which produced mixed
// read/write Zipf traffic at up to 35 MQPS.
type Generator struct {
	cfg GeneratorConfig
	rng *rand.Rand
}

// NewGenerator validates cfg and returns a stream.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if cfg.Reads == nil {
		return nil, fmt.Errorf("workload: generator needs a read distribution")
	}
	if cfg.WriteRatio < 0 || cfg.WriteRatio > 1 {
		return nil, fmt.Errorf("workload: write ratio %g out of [0,1]", cfg.WriteRatio)
	}
	if cfg.WriteRatio > 0 && cfg.Writes == nil {
		return nil, fmt.Errorf("workload: write ratio %g needs a write distribution", cfg.WriteRatio)
	}
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Next draws the next query.
func (g *Generator) Next() Query {
	if g.cfg.WriteRatio > 0 && g.rng.Float64() < g.cfg.WriteRatio {
		return Query{Key: g.cfg.Writes.Sample(g.rng), Write: true}
	}
	return Query{Key: g.cfg.Reads.Sample(g.rng), Write: false}
}

// KeyName converts an abstract key ID to the fixed 16-byte wire key. The
// encoding is stable across the whole repository so that clients, servers
// and the harness agree on identity.
func KeyName(id int) netproto.Key {
	var k netproto.Key
	copy(k[:], "k:")
	binary.BigEndian.PutUint64(k[2:10], uint64(id))
	return k
}

// KeyID recovers the abstract ID from a wire key produced by KeyName.
func KeyID(k netproto.Key) int {
	return int(binary.BigEndian.Uint64(k[2:10]))
}

// ValueFor returns the deterministic test value for a key ID with the given
// size: a repeating pattern derived from the ID, verifiable by clients (the
// snake-test servers "verify the values", §7.1). Byte i is byte i%8 of the
// big-endian seed id*0x9E3779B97F4A7C15+1, XORed with byte(i).
func ValueFor(id, size int) []byte { return AppendValue(nil, id, size) }

// AppendValue appends ValueFor(id, size) to dst and returns the extended
// slice. It writes a word at a time: over bytes [i, i+8), i a multiple of 8,
// byte(i) counts up from i&0xFF without wrapping, so the word XORed into the
// seed is 0x0001020304050607 plus i&0xFF in every byte.
func AppendValue(dst []byte, id, size int) []byte {
	seed := uint64(id)*0x9E3779B97F4A7C15 + 1
	n := len(dst)
	dst = slices.Grow(dst, size)[:n+size]
	v := dst[n:]
	for i := 0; i < size; i += 8 {
		word := seed ^ (0x0001020304050607 + uint64(i&0xFF)*0x0101010101010101)
		if i+8 <= size {
			binary.BigEndian.PutUint64(v[i:], word)
			continue
		}
		var tail [8]byte
		binary.BigEndian.PutUint64(tail[:], word)
		copy(v[i:], tail[:])
	}
	return dst
}

// CheckValue reports whether v is the canonical value for id.
func CheckValue(id int, v []byte) bool {
	want := ValueFor(id, len(v))
	for i := range v {
		if v[i] != want[i] {
			return false
		}
	}
	return len(v) > 0
}

// Churn is a popularity mutation applied periodically to model dynamic
// workloads.
type Churn uint8

// The three dynamic patterns of §7.1 / Figure 11.
const (
	// ChurnNone leaves popularity static.
	ChurnNone Churn = iota
	// ChurnHotIn promotes the N coldest keys to the top (Fig. 11a).
	ChurnHotIn
	// ChurnRandom replaces N random keys of the top M (Fig. 11b).
	ChurnRandom
	// ChurnHotOut demotes the N hottest keys to the bottom (Fig. 11c).
	ChurnHotOut
)

// String names the churn pattern.
func (c Churn) String() string {
	switch c {
	case ChurnNone:
		return "none"
	case ChurnHotIn:
		return "hot-in"
	case ChurnRandom:
		return "random"
	case ChurnHotOut:
		return "hot-out"
	}
	return fmt.Sprintf("Churn(%d)", uint8(c))
}

// Apply mutates pop according to the pattern. n is the change size and m the
// cache size (used only by ChurnRandom, per the paper's definition).
func (c Churn) Apply(pop *Popularity, rng *rand.Rand, n, m int) {
	switch c {
	case ChurnHotIn:
		pop.HotIn(n)
	case ChurnRandom:
		pop.RandomReplace(rng, n, m)
	case ChurnHotOut:
		pop.HotOut(n)
	}
}
