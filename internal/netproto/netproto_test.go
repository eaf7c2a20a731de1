package netproto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpGet:            "Get",
		OpGetReply:       "GetReply",
		OpGetReplyMiss:   "GetReplyMiss",
		OpPut:            "Put",
		OpPutCached:      "PutCached",
		OpPutReply:       "PutReply",
		OpDelete:         "Delete",
		OpDeleteCached:   "DeleteCached",
		OpDeleteReply:    "DeleteReply",
		OpCacheUpdate:    "CacheUpdate",
		OpCacheUpdateAck: "CacheUpdateAck",
		OpHotReport:      "HotReport",
		OpCtlBlock:       "CtlBlock",
		OpCtlUnblock:     "CtlUnblock",
		OpCtlAck:         "CtlAck",
		OpCtlStats:       "CtlStats",
		OpCtlStatsReply:  "CtlStatsReply",
		OpCtlUncached:    "CtlUncached",
		OpInvalid:        "Invalid",
		Op(200):          "Op(200)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	replies := []Op{OpGetReply, OpGetReplyMiss, OpPutReply, OpDeleteReply}
	valued := []Op{OpGetReply, OpPut, OpPutCached, OpCacheUpdate, OpCtlStatsReply, OpReplicate, OpCtlFetchReply}

	in := func(ops []Op, op Op) bool {
		for _, o := range ops {
			if o == op {
				return true
			}
		}
		return false
	}
	for op := OpInvalid; op < opSentinel; op++ {
		if got, want := op.IsReply(), in(replies, op); got != want {
			t.Errorf("%s.IsReply() = %v, want %v", op, got, want)
		}
		if got, want := op.HasValue(), in(valued, op); got != want {
			t.Errorf("%s.HasValue() = %v, want %v", op, got, want)
		}
	}
}

func TestOpValid(t *testing.T) {
	if OpInvalid.Valid() {
		t.Error("OpInvalid should not be Valid")
	}
	if opSentinel.Valid() {
		t.Error("opSentinel should not be Valid")
	}
	if !OpGet.Valid() || !OpHotReport.Valid() {
		t.Error("real ops should be Valid")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	val := bytes.Repeat([]byte{0xAB}, 64)
	orig := Packet{Op: OpPut, Seq: 42, Key: KeyFromString("hello"), Value: val}
	b, err := orig.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(b) != orig.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(b), orig.EncodedSize())
	}
	var got Packet
	if err := Decode(b, &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Op != orig.Op || got.Seq != orig.Seq || got.Key != orig.Key || !bytes.Equal(got.Value, orig.Value) {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, orig)
	}
}

// TestCtlFetchReplyRoundTrip: a control fetch reply carries the store
// version in front of a full-size value, through Marshal and Decode, and
// the version split comes back out.
func TestCtlFetchReplyRoundTrip(t *testing.T) {
	val := bytes.Repeat([]byte{0xCD}, MaxValueSize)
	orig := Packet{Op: OpCtlFetchReply, Seq: 1<<63 + 5, Key: KeyFromString("hot"),
		Value: AppendVersioned(nil, 0x0102030405060708, val)}
	b, err := orig.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(b) != MaxPacketSize {
		t.Fatalf("encoded %d bytes, MaxPacketSize is %d", len(b), MaxPacketSize)
	}
	var got Packet
	if err := Decode(b, &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Op != orig.Op || got.Seq != orig.Seq || got.Key != orig.Key {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, orig)
	}
	value, version, ok := SplitVersioned(got.Value)
	if !ok || version != 0x0102030405060708 || !bytes.Equal(value, val) {
		t.Fatalf("SplitVersioned = %d bytes, version %#x, %v", len(value), version, ok)
	}
	if _, _, ok := SplitVersioned(AppendVersioned(nil, 9, nil)); ok {
		t.Error("a version without a value must not split")
	}
	if _, err := (&Packet{Op: OpCtlFetchReply, Value: make([]byte, VersionSize+MaxValueSize+1)}).Marshal(); err != ErrValueTooBig {
		t.Errorf("oversize fetch reply: err = %v, want ErrValueTooBig", err)
	}
}

func TestEncodeDecodeNoValue(t *testing.T) {
	orig := Packet{Op: OpGet, Seq: 7, Key: KeyFromString("k")}
	b, err := orig.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Packet
	if err := Decode(b, &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Value != nil {
		t.Fatalf("expected nil value, got %v", got.Value)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		pkt  Packet
		want error
	}{
		{"invalid op", Packet{Op: OpInvalid}, ErrBadOp},
		{"unknown op", Packet{Op: Op(99)}, ErrBadOp},
		{"oversize value", Packet{Op: OpPut, Value: make([]byte, MaxValueSize+1)}, ErrValueTooBig},
		{"value on valueless op", Packet{Op: OpGet, Value: []byte{1}}, ErrUnexpectedVal},
	}
	for _, tc := range cases {
		if _, err := tc.pkt.Marshal(); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := (&Packet{Op: OpPut, Key: KeyFromString("k"), Value: []byte{1, 2, 3}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	var p Packet
	if err := Decode(good[:5], &p); err != ErrShortPacket {
		t.Errorf("short: %v, want ErrShortPacket", err)
	}

	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if err := Decode(bad, &p); err != ErrBadMagic {
		t.Errorf("magic: %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), good...)
	bad[2] = 0xEE
	if err := Decode(bad, &p); err != ErrBadOp {
		t.Errorf("op: %v, want ErrBadOp", err)
	}

	bad = append([]byte(nil), good...)
	bad[11+KeySize] = MaxValueSize + 1
	if err := Decode(bad, &p); err != ErrValueTooBig {
		t.Errorf("vlen: %v, want ErrValueTooBig", err)
	}

	// Claim more value bytes than present.
	bad = append([]byte(nil), good...)
	bad[11+KeySize] = 100
	if err := Decode(bad, &p); err != ErrTruncated {
		t.Errorf("truncated: %v, want ErrTruncated", err)
	}
}

func TestDecodeValueAliases(t *testing.T) {
	orig := Packet{Op: OpCacheUpdate, Key: KeyFromString("k"), Value: []byte{9, 9}}
	b, _ := orig.Marshal()
	var p Packet
	if err := Decode(b, &p); err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] = 42
	if p.Value[1] != 42 {
		t.Error("Decode should alias the input buffer (documented contract)")
	}
}

func TestKeyFromString(t *testing.T) {
	k := KeyFromString("abc")
	if k[0] != 'a' || k[1] != 'b' || k[2] != 'c' || k[3] != 0 {
		t.Errorf("unexpected key bytes: %v", k)
	}
	long := KeyFromString("0123456789abcdefEXTRA")
	if long[15] != 'f' {
		t.Errorf("long key should truncate at 16 bytes, got %v", long)
	}
}

func TestKeyString(t *testing.T) {
	if s := KeyFromString("user:42").String(); s != "user:42" {
		t.Errorf("printable key = %q", s)
	}
	var bin Key
	bin[0] = 0x01
	bin[15] = 0xFF
	if s := bin.String(); len(s) != 32 {
		t.Errorf("binary key should render as 32 hex chars, got %q", s)
	}
}

func TestHashKeyDeterministicAndSpread(t *testing.T) {
	a := HashKey([]byte("the-same-key"))
	b := HashKey([]byte("the-same-key"))
	if a != b {
		t.Fatal("HashKey not deterministic")
	}
	seen := make(map[Key]bool)
	for i := 0; i < 10000; i++ {
		k := HashKey(binary.BigEndian.AppendUint32(nil, uint32(i)))
		if seen[k] {
			t.Fatalf("collision after %d keys", i)
		}
		seen[k] = true
	}
}

func TestReply(t *testing.T) {
	get := Packet{Op: OpGet, Seq: 3, Key: KeyFromString("k")}
	r := Reply(&get, []byte("v"), true)
	if r.Op != OpGetReply || r.Seq != 3 || string(r.Value) != "v" {
		t.Errorf("get reply = %+v", r)
	}
	r = Reply(&get, nil, false)
	if r.Op != OpGetReplyMiss {
		t.Errorf("miss reply op = %v", r.Op)
	}
	put := Packet{Op: OpPutCached, Seq: 9, Key: KeyFromString("k")}
	if r = Reply(&put, nil, true); r.Op != OpPutReply || r.Seq != 9 {
		t.Errorf("put reply = %+v", r)
	}
	del := Packet{Op: OpDelete, Seq: 1, Key: KeyFromString("k")}
	if r = Reply(&del, nil, true); r.Op != OpDeleteReply {
		t.Errorf("delete reply = %+v", r)
	}
	bogus := Packet{Op: OpHotReport}
	if r = Reply(&bogus, nil, true); r.Op != OpInvalid {
		t.Errorf("non-request reply should be invalid, got %+v", r)
	}
}

// Property: every structurally valid packet round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valued := []Op{OpGetReply, OpPut, OpPutCached, OpCacheUpdate, OpCtlStatsReply, OpReplicate, OpCtlFetchReply}
	plain := []Op{OpGet, OpGetReplyMiss, OpPutReply, OpDelete, OpDeleteCached,
		OpDeleteReply, OpCacheUpdateAck, OpHotReport,
		OpCtlBlock, OpCtlUnblock, OpCtlAck, OpCtlStats,
		OpReplicateDelete, OpReplicateAck, OpCtlUncached}
	f := func(seq uint64, key [KeySize]byte, vlen uint8, pick uint8, withVal bool) bool {
		var p Packet
		p.Seq = seq
		p.Key = key
		if withVal {
			p.Op = valued[int(pick)%len(valued)]
			n := int(vlen) % (MaxValueSize + 1)
			p.Value = make([]byte, n)
			rng.Read(p.Value)
			if n == 0 {
				p.Value = nil
			}
		} else {
			p.Op = plain[int(pick)%len(plain)]
		}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		var q Packet
		if err := Decode(b, &q); err != nil {
			return false
		}
		return q.Op == p.Op && q.Seq == p.Seq && q.Key == p.Key && bytes.Equal(q.Value, p.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics and never returns a packet that fails Validate.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(b []byte) bool {
		var p Packet
		if err := Decode(b, &p); err != nil {
			return true
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := Packet{Op: OpGetReply, Seq: 1, Key: KeyFromString("bench"), Value: make([]byte, 128)}
	buf := make([]byte, 0, MaxPacketSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = p.Encode(buf)
	}
}

func BenchmarkDecode(b *testing.B) {
	p := Packet{Op: OpGetReply, Seq: 1, Key: KeyFromString("bench"), Value: make([]byte, 128)}
	buf, _ := p.Marshal()
	var out Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Decode(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashKey(b *testing.B) {
	raw := []byte("user:profile:123456789")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HashKey(raw)
	}
}
