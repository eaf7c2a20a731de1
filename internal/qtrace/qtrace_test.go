package qtrace

import (
	"testing"

	"netcache/internal/netproto"
)

func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	var key netproto.Key
	for i := 0; i < 7; i++ {
		r.Tap("n").Record(ClientSend, netproto.OpGet, uint64(i), key, false)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 7 {
		t.Fatalf("Total = %d, want 7", r.Total())
	}
	recs := r.Records()
	for i, rec := range recs {
		if want := uint64(3 + i); rec.Seq != want {
			t.Errorf("record %d: seq = %d, want %d (oldest-first)", i, rec.Seq, want)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Errorf("Len after Reset = %d", r.Len())
	}
	// Refill after reset must not resurface stale entries.
	r.Tap("n").Record(ClientRecv, netproto.OpGetReply, 99, key, true)
	recs = r.Records()
	if len(recs) != 1 || recs[0].Seq != 99 || !recs[0].Retransmit {
		t.Errorf("post-reset records = %+v", recs)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Ring
	var key netproto.Key
	// Every operation on a nil ring / nil tap is a no-op, not a panic.
	r.Tap("x").Record(ServerGet, netproto.OpGet, 1, key, true)
	if r.Len() != 0 || r.Total() != 0 || r.Records() != nil {
		t.Error("nil ring should be empty")
	}
	r.Reset()

	var tap *Tap
	tap.Record(SwitchHit, netproto.OpGetReply, 2, key, false)
}

func TestStageString(t *testing.T) {
	if ClientSend.String() != "client_send" || SwitchMiss.String() != "switch_miss" {
		t.Error("stage names wrong")
	}
	if Stage(200).String() == "" {
		t.Error("unknown stage should still render")
	}
}

func TestRecordString(t *testing.T) {
	r := NewRing(2)
	var key netproto.Key
	key[0] = 0xab
	r.Tap("client0").Record(ClientRetransmit, netproto.OpGet, 5, key, true)
	s := r.Records()[0].String()
	if s == "" {
		t.Fatal("empty render")
	}
	for _, want := range []string{"client0", "client_retransmit", "op=get", "seq=5", "retx"} {
		if !contains(s, want) {
			t.Errorf("render %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
