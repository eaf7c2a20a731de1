package switchcore

// The query-statistics engine's invariants (§4.4.3), checked on the switch's
// own Count-Min and Bloom registers through its production entry points:
// uncached Gets go in through ProcessAppend, estimates come out through
// EstimateFreq, and reports are read off the pipeline's digest counter,
// which counts a digest whether or not a handler is installed.

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"netcache/internal/netproto"
)

// statsRig is a switch whose statistics engine admits every uncached Get
// into a cmsWidth-slot sketch and reports keys at or above threshold.
func statsRig(t *testing.T, cmsWidth int, threshold uint64) *rig {
	t.Helper()
	cfg := TestConfig()
	cfg.CMSWidth = cmsWidth
	cfg.SampleRate = 1
	cfg.HotThreshold = threshold
	return newRigConfig(t, cfg)
}

func statKey(i int) netproto.Key {
	k := netproto.KeyFromString("stat")
	binary.BigEndian.PutUint64(k[8:], uint64(i))
	return k
}

func getFrame(t *testing.T, key netproto.Key) []byte {
	return mkFrame(t, serverAddr, clientAddr, netproto.Packet{Op: netproto.OpGet, Key: key})
}

// get runs one uncached Get for key and returns the digests it raised.
func (r *rig) get(t *testing.T, key netproto.Key) uint64 {
	t.Helper()
	before := r.sw.Pipeline().Stats().Digests
	if em := one(t, r.sw, getFrame(t, key), clientPort); em.Port != serverPort {
		t.Fatalf("uncached Get left on port %d, want the server's", em.Port)
	}
	return r.sw.Pipeline().Stats().Digests - before
}

func TestCountMinBasics(t *testing.T) {
	r := statsRig(t, 1<<16, 1<<16)
	k := statKey(1)
	for i := 1; i <= 10; i++ {
		r.get(t, k)
		if est := r.sw.EstimateFreq(k); est != uint64(i) {
			t.Fatalf("after Get #%d estimate = %d", i, est)
		}
	}
	if est := r.sw.EstimateFreq(statKey(2)); est != 0 {
		t.Errorf("untouched key estimate = %d, want 0", est)
	}
	r.sw.ResetStats(false)
	if est := r.sw.EstimateFreq(k); est != 0 {
		t.Errorf("after ResetStats estimate = %d", est)
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	r := statsRig(t, 1<<10, 1<<16) // small width to force collisions
	truth := make(map[int]uint64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		k := rng.Intn(5000)
		truth[k]++
		r.get(t, statKey(k))
	}
	for k, want := range truth {
		if got := r.sw.EstimateFreq(statKey(k)); got < want {
			t.Fatalf("key %d: estimate %d < true count %d", k, got, want)
		}
	}
}

// TestCountMinSaturates: the 16-bit rows pin at 0xFFFF instead of wrapping.
func TestCountMinSaturates(t *testing.T) {
	r := statsRig(t, 1<<16, 1<<20)
	k := statKey(3)
	f := getFrame(t, k)
	for i := 0; i < 0xFFFF+100; i++ {
		one(t, r.sw, f, clientPort)
	}
	if est := r.sw.EstimateFreq(k); est != 0xFFFF {
		t.Errorf("estimate = %#x, want the 16-bit ceiling 0xffff", est)
	}
}

// Property: the estimate is at least the true count of any insertion
// multiset (below saturation).
func TestQuickCountMinOneSided(t *testing.T) {
	r := statsRig(t, 1<<8, 1<<16)
	f := func(keys []uint16) bool {
		r.sw.ResetStats(true)
		truth := make(map[uint16]uint64)
		for _, k := range keys {
			truth[k]++
			r.get(t, statKey(int(k)))
		}
		for k, want := range truth {
			if r.sw.EstimateFreq(statKey(int(k))) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBloomBasics: the paper's filter is 3×256K one-bit slots (96 KB); a hot
// key's first Get sets its bits and reports it, a repeat finds them set and
// stays quiet, and ResetStats clears the bits so the key reports again.
func TestBloomBasics(t *testing.T) {
	sw, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	size := 0
	for _, reg := range sw.bloom {
		size += reg.SizeBytes()
	}
	if size != 3*(1<<18)/8 {
		t.Errorf("Bloom size = %d bytes, want 96 KB", size)
	}

	r := statsRig(t, 1<<16, 1) // every Get is hot: each one tests the filter
	k := statKey(9)
	if n := r.get(t, k); n != 1 {
		t.Errorf("first hot Get raised %d reports, want 1", n)
	}
	if n := r.get(t, k); n != 0 {
		t.Errorf("repeat hot Get raised %d reports, want 0", n)
	}
	r.sw.ResetStats(false)
	if n := r.get(t, k); n != 1 {
		t.Errorf("hot Get after ResetStats raised %d reports, want 1", n)
	}
}

// TestBloomNoFalseNegatives: every key the filter has taken in stays in it,
// so none of 2000 reported keys is reported a second time in its window,
// even in a filter small enough for their bits to collide.
func TestBloomNoFalseNegatives(t *testing.T) {
	cfg := TestConfig()
	cfg.BloomWidth = 1 << 12
	cfg.CMSWidth = 1 << 16
	cfg.HotThreshold = 1
	r := newRigConfig(t, cfg)
	for i := 0; i < 2000; i++ {
		r.get(t, statKey(i))
	}
	for i := 0; i < 2000; i++ {
		if n := r.get(t, statKey(i)); n != 0 {
			t.Fatalf("key %d reported again: the filter lost it", i)
		}
	}
}

// Property: within one statistics window a key is reported at most once,
// and only once its estimate reached the threshold; after ResetStats the
// same stream raises exactly the same reports again.
func TestQuickBloomProperties(t *testing.T) {
	const threshold = 3
	r := statsRig(t, 1<<8, threshold)
	window := func(keys []uint8) (map[int]int, bool) {
		reports := make(map[int]int)
		for _, b := range keys {
			k := int(b % 32) // repeats, so keys cross the threshold
			if n := r.get(t, statKey(k)); n > 0 {
				if r.sw.EstimateFreq(statKey(k)) < threshold {
					return nil, false
				}
				reports[k] += int(n)
			}
		}
		for _, n := range reports {
			if n > 1 {
				return nil, false
			}
		}
		return reports, true
	}
	f := func(keys []uint8) bool {
		r.sw.ResetStats(true)
		first, ok := window(keys)
		if !ok {
			return false
		}
		r.sw.ResetStats(false)
		again, ok := window(keys)
		return ok && reflect.DeepEqual(first, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBloomFalsePositiveRate: with the paper's 3×256K-bit filter holding a
// window's worth of hot keys, a newly hot key is almost never mistaken for
// one already reported.
func TestBloomFalsePositiveRate(t *testing.T) {
	cfg := PaperConfig()
	cfg.SampleRate = 1
	cfg.HotThreshold = 1 // every Get is hot: each one tests the filter
	r := newRigConfig(t, cfg)
	for i := 0; i < 10000; i++ {
		r.get(t, statKey(i))
	}
	const probes = 10000
	var reported uint64
	for i := 0; i < probes; i++ {
		reported += r.get(t, statKey(1_000_000+i))
	}
	if rate := float64(probes-reported) / probes; rate > 0.001 {
		t.Errorf("false positive rate %.4f too high for paper-sized filter", rate)
	}
}
