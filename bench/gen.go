package main

import (
	"encoding/binary"
	"errors"

	"netcache/internal/client"
	"netcache/internal/workload"
)

// failClass says how an op failed the oracle.
type failClass int

const (
	ok failClass = iota
	failTimeout
	failNotFound
	failWrongValue
	failStale
	numFailClasses
)

var failNames = [numFailClasses]string{"ok", "timeout", "not_found", "wrong_value", "stale"}

// generator draws the query stream from the seed and checks every reply. It
// is the single writer of the rack, so it knows what each key must hold.
//
// A written value is an 8-byte big-endian version followed by bytes 8.. of
// the key's ValueFor pattern; a key never written holds the whole pattern
// (version 0). A Get must return the pattern and a version no older than the
// last acknowledged Put of that key, and no newer than the last one sent.
type generator struct {
	stream *workload.Generator
	acked  []uint32 // last acknowledged version per key
	sent   []uint32 // last version handed to Put per key
	value  [valueSize]byte
	fails  [numFailClasses]int
}

func newGenerator(spec *workloadSpec, seed int64) (*generator, error) {
	var dist workload.Dist = workload.UniformDist{N: datasetKeys}
	if spec.theta > 0 {
		z, err := workload.NewZipf(datasetKeys, spec.theta)
		if err != nil {
			return nil, err
		}
		dist = workload.ZipfDist{Z: z, Pop: workload.NewPopularity(datasetKeys)}
	}
	stream, err := workload.NewGenerator(workload.GeneratorConfig{
		Reads: dist, Writes: dist, WriteRatio: spec.writeRatio, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &generator{
		stream: stream,
		acked:  make([]uint32, datasetKeys),
		sent:   make([]uint32, datasetKeys),
	}, nil
}

// patternWord is bytes [8w, 8w+8) of workload.ValueFor(id, valueSize) as a
// big-endian word, without building the slice: the hot loop checks a 128 B
// value in sixteen compares and no allocation.
func patternWord(id, w int) uint64 {
	return (uint64(id)*0x9E3779B97F4A7C15 + 1) ^ (0x0001020304050607 + uint64(w)*0x0808080808080808)
}

// nextValue returns the value of the next Put to id. The slice is reused.
func (g *generator) nextValue(id int) []byte {
	g.sent[id]++
	binary.BigEndian.PutUint64(g.value[:8], uint64(g.sent[id]))
	for w := 1; w < valueSize/8; w++ {
		binary.BigEndian.PutUint64(g.value[8*w:], patternWord(id, w))
	}
	return g.value[:]
}

// checkPut records the outcome of the Put that nextValue prepared.
func (g *generator) checkPut(id int, err error) failClass {
	c := ok
	if err != nil {
		c = failTimeout
	} else {
		g.acked[id] = g.sent[id]
	}
	g.fails[c]++
	return c
}

// checkGet classifies the reply to a Get of id.
func (g *generator) checkGet(id int, v []byte, err error) failClass {
	c := g.classifyGet(id, v, err)
	g.fails[c]++
	return c
}

func (g *generator) classifyGet(id int, v []byte, err error) failClass {
	switch {
	case errors.Is(err, client.ErrNotFound):
		return failNotFound
	case err != nil:
		return failTimeout
	case len(v) != valueSize:
		return failWrongValue
	}
	for w := 1; w < valueSize/8; w++ {
		if binary.BigEndian.Uint64(v[8*w:]) != patternWord(id, w) {
			return failWrongValue
		}
	}
	version := binary.BigEndian.Uint64(v[:8])
	if version == patternWord(id, 0) {
		version = 0 // never written: the loaded dataset value
	}
	switch {
	case version < uint64(g.acked[id]):
		return failStale
	case version > uint64(g.sent[id]):
		return failWrongValue
	}
	return ok
}

// failed is the number of ops that did not pass the oracle.
func (g *generator) failed() int {
	n := 0
	for c := failTimeout; c < numFailClasses; c++ {
		n += g.fails[c]
	}
	return n
}
