package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	janus "janusaqp"
	"janusaqp/internal/core"
	"janusaqp/internal/geom"
)

// FuzzDecodeQueryRequest holds the client-facing request decoder to the
// frame decoder's bar: MsgClientQuery bodies arrive from arbitrary
// producers, so corrupt, truncated, or adversarial bytes must decode to
// an error or a valid request, never panic, and never allocate attribute
// vectors beyond what the body's own length can justify. A successful
// decode must normalize: re-encoding it and decoding again is a fixed
// point (byte-identical the second time around). Every decoded request
// then meets janus.Request.Validate, the gate between this codec and the
// engine: it must never panic, and what it passes carries no NaN.
func FuzzDecodeQueryRequest(f *testing.F) {
	f.Add(EncodeQueryRequest(janus.Request{SQL: "SELECT COUNT(*) FROM t", Confidence: 0.95}))
	f.Add(EncodeQueryRequest(janus.Request{Template: "trips"}))
	f.Add(EncodeQueryRequest(janus.Request{
		Template: "trips",
		Query: janus.Query{
			Func: core.FuncSum, AggIndex: 1,
			Rect:       geom.Rect{Min: geom.Point{0, -4.5}, Max: geom.Point{3600, 12.25}},
			Confidence: 0.99,
		},
	}))
	f.Add(EncodeQueryRequest(janus.Request{
		Template: "trips", OnKeys: []int{0, 2},
		Query: janus.Query{Rect: geom.Rect{Min: geom.Point{1, 2}, Max: geom.Point{3, 4}}},
	}))
	f.Add(EncodeQueryRequest(janus.Request{
		Template: "trips", Confidence: math.NaN(),
		Query: janus.Query{Rect: geom.Rect{Min: geom.Point{math.NaN()}, Max: geom.Point{1}}},
	}))
	// Adversarial seeds: truncated mid-string, a rect length word claiming
	// more floats than the body holds, trailing garbage.
	f.Add([]byte{5, 0, 't', 'r'})
	f.Add(binary.LittleEndian.AppendUint32([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, 0xFFFF))
	f.Add(append(EncodeQueryRequest(janus.Request{Template: "t"}), 0xEE))

	f.Fuzz(func(t *testing.T, p []byte) {
		req, err := DecodeQueryRequest(p)
		if err != nil {
			return
		}
		// Attribute vectors must be bounded by the bytes actually present:
		// every decoded float64 costs 8 encoded bytes, every on-key 8.
		if 8*(len(req.Query.Rect.Min)+len(req.Query.Rect.Max)+len(req.OnKeys)) > len(p) {
			t.Fatalf("decoded %d-dim rect and %d on-keys from %d bytes",
				len(req.Query.Rect.Min), len(req.Query.Rect.Max)+len(req.OnKeys), len(p))
		}
		// Normalization fixed point: one re-encode round trip is canonical.
		re := EncodeQueryRequest(req)
		req2, err := DecodeQueryRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if re2 := EncodeQueryRequest(req2); !bytes.Equal(re, re2) {
			t.Fatalf("re-encoding is not a fixed point:\n1st %x\n2nd %x", re, re2)
		}
		if req.Validate() != nil {
			return
		}
		for _, v := range slices.Concat(req.Query.Rect.Min, req.Query.Rect.Max, []float64{req.Confidence, req.Query.Confidence}) {
			if math.IsNaN(v) {
				t.Fatalf("Validate passed a NaN: %+v", req)
			}
		}
	})
}

// FuzzDecodeFrame holds the frame decoder to the segment-log reader's bar
// (FuzzOpenTopic): arbitrary bytes — corrupt, truncated, oversized, or
// adversarially framed — must decode to an error or a valid frame, never
// panic, and must never allocate beyond the bytes actually present. A
// successfully decoded frame must re-encode byte-identically (the frame
// encoding is canonical), and the byte-slice decoder must agree with the
// stream decoder.
func FuzzDecodeFrame(f *testing.F) {
	seed := func(fr Frame) {
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(Frame{Type: MsgPing})
	seed(Frame{Type: MsgQuery, RequestID: "req-0001",
		Body: EncodeQueryRequest(janus.Request{SQL: "SELECT COUNT(*) FROM t", Confidence: 0.95})})
	seed(Frame{Type: MsgQuery, Flags: FlagError, RequestID: "e",
		Body: EncodeErrorBody(fmt.Errorf("resolving: %w", janus.ErrUnknownTemplate))})
	seed(Frame{Type: MsgIngest, RequestID: "ing", Body: bytes.Repeat([]byte{7}, 300)})
	seed(Frame{Type: MsgFetchCheckpoint, Flags: FlagMore, Body: bytes.Repeat([]byte{1, 2, 3}, 100)})
	// Adversarial seeds: truncated header, lying length, bad CRC, an ID
	// length spilling past the payload.
	f.Add([]byte{1, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF), 0))
	bad, _ := AppendFrame(nil, Frame{Type: MsgPromote, Body: []byte("x")})
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)
	f.Add([]byte{4, 0, 0, 0, 0x7a, 0x8e, 0x86, 0x2c, 1, 0, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, p []byte) {
		fr, n, err := DecodeFrame(p)
		stream, serr := ReadFrame(bytes.NewReader(p))
		if err != nil {
			// The stream decoder may only succeed where the slice decoder
			// fails if the slice held trailing bytes — impossible: both see
			// the same prefix. They must agree on validity.
			if serr == nil {
				t.Fatalf("DecodeFrame errored (%v) but ReadFrame decoded %+v", err, stream)
			}
			return
		}
		if n < frameHeaderLen+payloadFixedLen || n > len(p) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(p))
		}
		if serr != nil {
			t.Fatalf("ReadFrame errored (%v) but DecodeFrame decoded %+v", serr, fr)
		}
		if stream.Type != fr.Type || stream.Flags != fr.Flags || stream.RequestID != fr.RequestID || !bytes.Equal(stream.Body, fr.Body) {
			t.Fatalf("stream and slice decoders disagree: %+v vs %+v", stream, fr)
		}
		// Canonical: a decoded frame re-encodes to exactly the consumed bytes.
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		if !bytes.Equal(re, p[:n]) {
			t.Fatalf("decoded frame is not canonical:\n in %x\nout %x", p[:n], re)
		}
	})
}
