package netproto

import (
	"bytes"
	"testing"
)

// FuzzDecode: Decode must never panic, and anything it accepts must
// re-encode to an equivalent packet (parse → print → parse fixpoint).
func FuzzDecode(f *testing.F) {
	seed := []Packet{
		{Op: OpGet, Seq: 1, Key: KeyFromString("k")},
		{Op: OpGetReply, Seq: 2, Key: KeyFromString("k"), Value: []byte("v")},
		{Op: OpPut, Seq: 3, Key: KeyFromString("kk"), Value: bytes.Repeat([]byte{7}, 128)},
		{Op: OpCacheUpdate, Seq: 4, Key: KeyFromString("u"), Value: []byte("new")},
		{Op: OpCtlFetch, Seq: 5, Key: KeyFromString("h")},
	}
	for _, p := range seed {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x4E, 0x43})

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := Decode(data, &p); err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid packet: %v", err)
		}
		re, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted packet fails to re-encode: %v", err)
		}
		var q Packet
		if err := Decode(re, &q); err != nil {
			t.Fatalf("re-encoded packet fails to decode: %v", err)
		}
		if q.Op != p.Op || q.Seq != p.Seq || q.Key != p.Key || !bytes.Equal(q.Value, p.Value) {
			t.Fatal("decode/encode not a fixpoint")
		}
	})
}

// FuzzDecodeFrame: frame parsing must never panic and must round-trip.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(MarshalFrame(1, 2, []byte("payload")))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return
		}
		re := MarshalFrame(fr.Dst, fr.Src, fr.Payload)
		if !bytes.Equal(re, data) {
			t.Fatal("frame re-encode differs")
		}
	})
}
