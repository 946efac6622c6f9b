package transport

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// --- client-query codec ------------------------------------------------

func TestQueryResultRoundTrip(t *testing.T) {
	results := []QueryResult{
		{},
		{
			Estimate: 1234.5, Lo: 1200.25, Hi: 1268.75, HalfWidth: 34.25,
			Covered: 17, PartialLeaves: 3, Outer: true,
			Template: "trips", SampleSize: 4096, Population: 120000,
			CatchUpProgress: 0.625, ElapsedMicros: 412,
		},
		{Estimate: math.Inf(1), Lo: math.Inf(-1), Hi: math.Inf(1), Template: "t"},
	}
	for _, want := range results {
		got, err := DecodeQueryResult(EncodeQueryResult(want))
		if err != nil {
			t.Fatalf("decoding %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the result:\n in %+v\nout %+v", want, got)
		}
	}

	// Append must extend, not replace: the pooled-buffer hot path relies
	// on the reply landing after whatever the caller already wrote.
	buf := AppendQueryResult([]byte("prefix"), results[1])
	if string(buf[:6]) != "prefix" {
		t.Fatalf("AppendQueryResult clobbered the prefix: %q", buf[:6])
	}
	if _, err := DecodeQueryResult(buf[6:]); err != nil {
		t.Fatalf("appended encoding does not decode: %v", err)
	}

	// Truncations must error, never panic.
	full := EncodeQueryResult(results[1])
	for n := range full {
		if _, err := DecodeQueryResult(full[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(full))
		}
	}
}

func TestAppendIngestReplyMatchesEncode(t *testing.T) {
	rep := IngestReply{Inserted: 512, Deleted: 3, Missing: []int64{7, 11}, InsLen: 99, DelLen: 5}
	app := AppendIngestReply(nil, rep)
	enc := EncodeIngestReply(rep)
	if !reflect.DeepEqual(app, enc) {
		t.Fatalf("append and encode forms disagree:\n%x\n%x", app, enc)
	}
}

// --- client lifecycle --------------------------------------------------

// TestClientClosedLatch is the use-after-Close regression test: Call on a
// closed client must fail with the typed sentinel and must never dial —
// before the fix, get() happily dialed a fresh connection that nothing
// would ever put back, leaking it.
func TestClientClosedLatch(t *testing.T) {
	addr := startServer(t, HandlerFunc(func(f Frame, w *ResponseWriter) {
		w.Reply(nil)
	}))
	cl := NewClient(addr)
	if _, err := cl.Call(context.Background(), MsgPing, "", nil); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	_, err := cl.Call(context.Background(), MsgPing, "", nil)
	if !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Call after Close: got %v, want ErrClientClosed", err)
	}
	if err := cl.Stream(context.Background(), MsgPing, "", nil, func([]byte) error { return nil }); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Stream after Close: got %v, want ErrClientClosed", err)
	}
	if ps := cl.Stats(); ps.Dials != 1 {
		t.Fatalf("closed client dialed: %+v", ps)
	}
	// Close is idempotent.
	cl.Close()
}

// TestStreamCountsActive pins the gauge fix: a long stream must show up in
// PoolStats.Active exactly like a round trip, so operators watching the
// gauge see checkpoint fetches, not a lying zero.
func TestStreamCountsActive(t *testing.T) {
	addr := startServer(t, HandlerFunc(func(f Frame, w *ResponseWriter) {
		w.Chunk([]byte("part"))
		w.Reply([]byte("end"))
	}))
	cl := NewClient(addr)
	defer cl.Close()

	var during []int
	var mu sync.Mutex
	err := cl.Stream(context.Background(), MsgFetchCheckpoint, "", nil, func(chunk []byte) error {
		mu.Lock()
		during = append(during, cl.Stats().Active)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range during {
		if a != 1 {
			t.Fatalf("active gauge mid-stream: %d, want 1", a)
		}
	}
	if a := cl.Stats().Active; a != 0 {
		t.Fatalf("active gauge after stream: %d, want 0", a)
	}
}
