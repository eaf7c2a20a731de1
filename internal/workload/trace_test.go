package workload

import (
	"bytes"
	"io"
	"testing"
)

// traceGen is a read-mostly Zipf 0.99 stream over 1000 keys, 5 % writes.
func traceGen(t *testing.T) *Generator {
	t.Helper()
	z, err := NewZipf(1000, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	dist := ZipfDist{Z: z, Pop: NewPopularity(1000)}
	g, err := NewGenerator(GeneratorConfig{Reads: dist, Writes: dist, WriteRatio: 0.05, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(&buf, traceGen(t), 5000); err != nil {
		t.Fatal(err)
	}
	// An identical generator produces the same stream: verify replay
	// matches it query for query.
	ref := traceGen(t)
	n := 0
	err := Replay(bytes.NewReader(buf.Bytes()), func(q Query) error {
		if q != ref.Next() {
			t.Fatalf("query %d diverges", n)
		}
		n++
		return nil
	})
	if err != nil || n != 5000 {
		t.Fatalf("replayed %d queries, err %v", n, err)
	}
}

func TestTraceWriterLen(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tw.Append(Query{Key: 1})
	tw.Append(Query{Key: 2, Write: true})
	if tw.Len() != 2 {
		t.Errorf("Len = %d", tw.Len())
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8+2*5 {
		t.Errorf("encoded %d bytes", buf.Len())
	}
}

func TestTraceBadInputs(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header should fail")
	}
	if _, err := NewTraceReader(bytes.NewReader([]byte("WRONGMAG"))); err == nil {
		t.Error("bad magic should fail")
	}

	// Truncated record.
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf)
	tw.Append(Query{Key: 7})
	tw.Flush()
	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()[:buf.Len()-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated record: %v", err)
	}

	// Unknown op byte.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[8] = 'X'
	tr, _ = NewTraceReader(bytes.NewReader(raw))
	if _, err := tr.Next(); err == nil {
		t.Error("unknown op should fail")
	}
}

func TestReplayPropagatesCallbackError(t *testing.T) {
	var buf bytes.Buffer
	Record(&buf, traceGen(t), 10)
	calls := 0
	err := Replay(bytes.NewReader(buf.Bytes()), func(Query) error {
		calls++
		if calls == 3 {
			return io.ErrUnexpectedEOF
		}
		return nil
	})
	if err != io.ErrUnexpectedEOF || calls != 3 {
		t.Errorf("calls=%d err=%v", calls, err)
	}
}
