package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	janus "janusaqp"
	"janusaqp/internal/routertest"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// postBinary posts a transport-encoded body under the binary media type.
func postBinary(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, BinaryMediaType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// binaryErr decodes a binary error response and requires the given status.
func binaryErr(t testing.TB, resp *http.Response, out []byte, status int) error {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d (body %q)", resp.StatusCode, status, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BinaryMediaType {
		t.Fatalf("error content type %q, want %q", ct, BinaryMediaType)
	}
	return transport.DecodeErrorBody(out)
}

// TestBinaryQueryMatchesJSON is the codec-equivalence test on one engine:
// the same structured query answered through the JSON /v2/query codec and
// the binary content type must agree float-bit for float-bit — the binary
// protocol is a wire format, never a different estimator.
func TestBinaryQueryMatchesJSON(t *testing.T) {
	eng, tuples := newTestEngine(t, 20000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mid := tuples[len(tuples)/2].Key[0]
	cases := []struct {
		name     string
		min, max float64
		conf     float64
	}{
		{"first-half", 0, mid, 0},
		{"tight", mid * 0.25, mid * 0.3, 0.99},
		{"everything", 0, math.MaxFloat64 / 4, 0.5},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "SUM",
			Min: []float64{tc.min}, Max: []float64{tc.max}, Confidence: tc.conf})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: json status %d: %s", tc.name, resp.StatusCode, raw)
		}
		var want QueryResultV2
		decodeInto(t, raw, &want)

		body := transport.EncodeQueryRequest(janus.Request{
			Template: "trips",
			Query: janus.Query{
				Func: janus.FuncSum, AggIndex: -1,
				Rect:       janus.NewRect(janus.Point{tc.min}, janus.Point{tc.max}),
				Confidence: tc.conf,
			},
		})
		bresp, bout := postBinary(t, ts.URL+"/v2/query", body)
		if bresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: binary status %d: %v", tc.name, bresp.StatusCode, transport.DecodeErrorBody(bout))
		}
		if ct := bresp.Header.Get("Content-Type"); ct != BinaryMediaType {
			t.Fatalf("%s: reply content type %q", tc.name, ct)
		}
		got, err := transport.DecodeQueryResult(bout)
		if err != nil {
			t.Fatalf("%s: decoding binary result: %v", tc.name, err)
		}

		sameBits := func(field string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: %s disagrees across codecs: json %g binary %g", tc.name, field, a, b)
			}
		}
		sameBits("estimate", want.Estimate, got.Estimate)
		sameBits("lo", want.Lo, got.Lo)
		sameBits("hi", want.Hi, got.Hi)
		sameBits("halfWidth", want.HalfWidth, got.HalfWidth)
		if got.Covered != want.Covered || got.PartialLeaves != want.Partial || got.Outer != want.Outer {
			t.Fatalf("%s: leaf counts disagree: json %+v binary %+v", tc.name, want, got)
		}
		if got.Template != want.Template || got.SampleSize != want.SampleSize || got.Population != want.Population {
			t.Fatalf("%s: metadata disagrees: json %+v binary %+v", tc.name, want, got)
		}
	}

	// SQL rides the binary codec too.
	body := transport.EncodeQueryRequest(janus.Request{
		SQL: "SELECT COUNT(*) FROM trips", Confidence: 0.95,
	})
	bresp, bout := postBinary(t, ts.URL+"/v2/query", body)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("binary SQL status %d: %v", bresp.StatusCode, transport.DecodeErrorBody(bout))
	}
	got, err := transport.DecodeQueryResult(bout)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate <= 0 || got.Template != "trips" {
		t.Fatalf("binary SQL answer: %+v", got)
	}
}

// TestBinaryIngestMatchesJSON drives the same batch through both ingest
// codecs on identically built engines: the acks must agree field for
// field (including Missing ids), and a follow-up query must see the same
// population on both.
func TestBinaryIngestMatchesJSON(t *testing.T) {
	engJSON, _ := newTestEngine(t, 8000)
	engBin, _ := newTestEngine(t, 8000)
	srvJSON := New(engJSON, Options{})
	defer srvJSON.Close()
	srvBin := New(engBin, Options{})
	defer srvBin.Close()
	tsJSON := httptest.NewServer(srvJSON.Handler())
	defer tsJSON.Close()
	tsBin := httptest.NewServer(srvBin.Handler())
	defer tsBin.Close()

	fresh, err := workload.Generate(workload.NYCTaxi, 500, 5_000_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	deleteIDs := []int64{fresh[0].ID, fresh[1].ID, 99_999_999} // last one unknown

	wire := make([]WireTuple, len(fresh))
	for i, tp := range fresh {
		wire[i] = WireTuple{ID: tp.ID, Key: tp.Key, Vals: tp.Vals}
	}
	resp, raw := postJSON(t, tsJSON.URL+"/v2/ingest", IngestRequest{Tuples: wire, DeleteIDs: deleteIDs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json ingest status %d: %s", resp.StatusCode, raw)
	}
	var jsonAck IngestResponse
	decodeInto(t, raw, &jsonAck)

	bresp, bout := postBinary(t, tsBin.URL+"/v2/ingest", transport.EncodeIngestRequest(fresh, deleteIDs))
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("binary ingest status %d: %v", bresp.StatusCode, transport.DecodeErrorBody(bout))
	}
	binAck, err := transport.DecodeIngestReply(bout)
	if err != nil {
		t.Fatal(err)
	}
	if binAck.Inserted != jsonAck.Inserted || binAck.Deleted != jsonAck.Deleted {
		t.Fatalf("acks disagree: json %+v binary %+v", jsonAck, binAck)
	}
	if len(binAck.Missing) != len(jsonAck.Missing) || binAck.Missing[0] != jsonAck.Missing[0] {
		t.Fatalf("missing ids disagree: json %v binary %v", jsonAck.Missing, binAck.Missing)
	}

	if a, b := engJSON.Stats().ArchiveRows, engBin.Stats().ArchiveRows; a != b {
		t.Fatalf("row counts diverged after identical ingest: json %d binary %d", a, b)
	}
}

// TestBinaryIngestRejectsNaN: the binary codec carries raw float64 bits,
// so unlike JSON it can deliver a NaN attribute. The engine's admission
// refuses it; the server must answer 400 with ErrInvalidRequest restored
// from the binary error body, and apply nothing of the batch.
func TestBinaryIngestRejectsNaN(t *testing.T) {
	eng, tuples := newTestEngine(t, 4000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fresh, err := workload.Generate(workload.NYCTaxi, 3, 5_000_000, 12)
	if err != nil {
		t.Fatal(err)
	}
	fresh[1].Vals[0] = math.NaN()
	before := eng.Stats().ArchiveRows
	resp, out := postBinary(t, ts.URL+"/v2/ingest", transport.EncodeIngestRequest(fresh, []int64{tuples[0].ID}))
	if err := binaryErr(t, resp, out, http.StatusBadRequest); !errors.Is(err, janus.ErrInvalidRequest) {
		t.Fatalf("NaN ingest error %v, want ErrInvalidRequest", err)
	}
	if after := eng.Stats().ArchiveRows; after != before {
		t.Fatalf("archive rows %d -> %d: a rejected batch was applied", before, after)
	}
}

// sentinelForStatus is the JSON client's view of an error: the body is
// text, so the status is what says which sentinel it was.
func sentinelForStatus(status int, msg string) error {
	for _, sentinel := range []error{janus.ErrInvalidRequest, janus.ErrUnknownTemplate, janus.ErrDuplicateID, janus.ErrShardUnavailable} {
		if statusForEngineErr(sentinel) == status {
			return fmt.Errorf("%w: HTTP %d: %s", sentinel, status, msg)
		}
	}
	return fmt.Errorf("HTTP %d: %s", status, msg)
}

// jsonQuery answers req through the JSON /v2/query codec.
func jsonQuery(t testing.TB, url string) func(context.Context, janus.Request) (janus.Response, error) {
	return func(_ context.Context, req janus.Request) (janus.Response, error) {
		wire := QueryRequestV2{
			SQL: req.SQL, Template: req.Template, Func: req.Query.Func.String(),
			Min: req.Query.Rect.Min, Max: req.Query.Rect.Max,
			Confidence: req.Confidence, OnKeys: req.OnKeys,
		}
		// JSON numbers are finite, and the query-level confidence is not a
		// wire field.
		for _, v := range slices.Concat(wire.Min, wire.Max, []float64{wire.Confidence}) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return janus.Response{}, routertest.ErrInexpressible
			}
		}
		if req.Query.Confidence != 0 {
			return janus.Response{}, routertest.ErrInexpressible
		}
		resp, raw := postJSON(t, url+"/v2/query", wire)
		if resp.StatusCode != http.StatusOK {
			var er ErrorResponse
			decodeInto(t, raw, &er)
			return janus.Response{}, sentinelForStatus(resp.StatusCode, er.Error)
		}
		var res QueryResultV2
		decodeInto(t, raw, &res)
		return routertest.Answer(res.Estimate, res.HalfWidth), nil
	}
}

// binaryQuery answers req through the binary /v2/query codec, requiring
// the HTTP status to agree with the sentinel the error body decodes to.
func binaryQuery(t testing.TB, url string) func(context.Context, janus.Request) (janus.Response, error) {
	return func(_ context.Context, req janus.Request) (janus.Response, error) {
		resp, out := postBinary(t, url+"/v2/query", transport.EncodeQueryRequest(req))
		if resp.StatusCode != http.StatusOK {
			err := transport.DecodeErrorBody(out)
			return janus.Response{}, binaryErr(t, resp, out, statusForEngineErr(err))
		}
		res, err := transport.DecodeQueryResult(out)
		if err != nil {
			t.Fatal(err)
		}
		return routertest.Answer(res.Estimate, res.HalfWidth), nil
	}
}

// TestRequestValidationHTTP runs the one validation table through both
// /v2/query codecs: neither has rules of its own, so each must answer what
// janus.Request.Validate says (400, or 404 for an unknown template), and
// the binary codec — which can carry NaN and ±Inf where JSON literals
// cannot — must stop them before the engine.
func TestRequestValidationHTTP(t *testing.T) {
	eng, _ := newTestEngine(t, 4000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	t.Run("json", func(t *testing.T) {
		routertest.RunValidation(t, routertest.QuerySurface{Template: "trips", Do: jsonQuery(t, ts.URL), Reference: eng.Do})
	})
	t.Run("binary", func(t *testing.T) {
		routertest.RunValidation(t, routertest.QuerySurface{Template: "trips", Do: binaryQuery(t, ts.URL), Reference: eng.Do})
	})

	// A body the transport codec cannot decode is the client's fault too.
	resp, out := postBinary(t, ts.URL+"/v2/query", []byte{0xFF, 0xFF, 0xFF})
	if err := binaryErr(t, resp, out, http.StatusBadRequest); !errors.Is(err, janus.ErrInvalidRequest) {
		t.Fatalf("garbage body: %v", err)
	}
}

// TestIngestTableHTTP runs the one ingest table through both /v2/ingest
// codecs, each over its own engine and a write-health hook the table trips.
func TestIngestTableHTTP(t *testing.T) {
	fresh, err := workload.Generate(workload.NYCTaxi, 8, 5_000_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	surface := func(t *testing.T, ingest func(url string, tuples []janus.Tuple, ids []int64) (int, int, []int64, error)) routertest.IngestSurface {
		eng, tuples := newTestEngine(t, 4000)
		health, breakLog := routertest.BreakableHealth()
		srv := New(eng, Options{WriteHealth: health})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return routertest.IngestSurface{
			Ingest: func(tuples []janus.Tuple, ids []int64) (int, int, []int64, error) {
				return ingest(ts.URL, tuples, ids)
			},
			BreakLog: breakLog,
			Rows:     func() int64 { return eng.Stats().ArchiveRows },
			Live:     tuples[0],
			Fresh:    fresh,
		}
	}
	t.Run("json", func(t *testing.T) {
		routertest.RunIngest(t, surface(t, func(url string, tuples []janus.Tuple, ids []int64) (int, int, []int64, error) {
			wire := IngestRequest{DeleteIDs: ids}
			for _, tp := range tuples {
				wire.Tuples = append(wire.Tuples, WireTuple{ID: tp.ID, Key: tp.Key, Vals: tp.Vals})
			}
			resp, raw := postJSON(t, url+"/v2/ingest", wire)
			if resp.StatusCode != http.StatusOK {
				var er ErrorResponse
				decodeInto(t, raw, &er)
				return 0, 0, nil, sentinelForStatus(resp.StatusCode, er.Error)
			}
			var ack IngestResponse
			decodeInto(t, raw, &ack)
			return ack.Inserted, ack.Deleted, ack.Missing, nil
		}))
	})
	t.Run("binary", func(t *testing.T) {
		routertest.RunIngest(t, surface(t, func(url string, tuples []janus.Tuple, ids []int64) (int, int, []int64, error) {
			resp, out := postBinary(t, url+"/v2/ingest", transport.EncodeIngestRequest(tuples, ids))
			if resp.StatusCode != http.StatusOK {
				err := transport.DecodeErrorBody(out)
				return 0, 0, nil, binaryErr(t, resp, out, statusForEngineErr(err))
			}
			ack, err := transport.DecodeIngestReply(out)
			if err != nil {
				t.Fatal(err)
			}
			return ack.Inserted, ack.Deleted, ack.Missing, nil
		}))
	})
}

// TestAnswerBinaryAllocs pins the binary query hot path's allocation
// budget: body bytes in, reply bytes out, single-digit allocs/op. The
// budget covers the request decode (one shared rect arena), the engine
// answer, and the reply append into a caller-owned buffer.
func TestAnswerBinaryAllocs(t *testing.T) {
	eng, tuples := newTestEngine(t, 20000)
	lo, hi := tuples[10].Key[0], tuples[100].Key[0]
	if lo > hi {
		lo, hi = hi, lo
	}
	body := transport.EncodeQueryRequest(janus.Request{
		Template: "trips",
		Query:    janus.Query{Func: janus.FuncSum, AggIndex: -1, Rect: janus.NewRect(janus.Point{lo}, janus.Point{hi})},
	})
	buf := make([]byte, 0, 512)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		out, err := AnswerBinary(ctx, eng, body, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	// Measured 3 on the current implementation; 8 leaves headroom while
	// still catching a per-sample or per-dimension allocation regression
	// (the pre-fix answer path measured 78).
	if allocs > 8 {
		t.Fatalf("binary query hot path allocates %.0f/op, want single digits", allocs)
	}
}

// TestIngestBodyCap sends /v2/ingest a body one byte over
// transport.MaxFrameBytes on each codec: a valid batch whose padding
// carries it past the cap must answer 400 and apply neither its insert
// nor its delete.
func TestIngestBodyCap(t *testing.T) {
	eng, tuples := newTestEngine(t, 5000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fresh := janus.Tuple{ID: 9_000_001, Key: janus.Point{1}, Vals: []float64{1, 1, 1}}
	victim := tuples[0].ID
	pad := func(head []byte, tail string, fill byte) []byte {
		body := append(head, bytes.Repeat([]byte{fill}, transport.MaxFrameBytes+1-len(head)-len(tail))...)
		return append(body, tail...)
	}
	jsonHead := fmt.Sprintf(`{"tuples":[{"id":%d,"key":[1],"vals":[1,1,1]}],"deleteIds":[%d]`, fresh.ID, victim)
	for _, tc := range []struct {
		codec string
		body  []byte
	}{
		{"application/json", pad([]byte(jsonHead), "}", ' ')},
		{BinaryMediaType, pad(transport.EncodeIngestRequest([]janus.Tuple{fresh}, []int64{victim}), "", 0)},
	} {
		if len(tc.body) != transport.MaxFrameBytes+1 {
			t.Fatalf("%s body is %d bytes, want %d", tc.codec, len(tc.body), transport.MaxFrameBytes+1)
		}
		resp, err := http.Post(ts.URL+"/v2/ingest", tc.codec, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		msg := string(out)
		if tc.codec == BinaryMediaType {
			msg = binaryErr(t, resp, out, http.StatusBadRequest).Error()
		} else if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %q)", tc.codec, resp.StatusCode, out)
		}
		if !strings.Contains(msg, "request body too large") {
			t.Errorf("%s: error %q, want \"request body too large\"", tc.codec, msg)
		}
		if _, ok := eng.Broker().Archive().Get(fresh.ID); ok {
			t.Errorf("%s: the over-cap batch's insert landed", tc.codec)
		}
		if _, ok := eng.Broker().Archive().Get(victim); !ok {
			t.Errorf("%s: the over-cap batch's delete landed", tc.codec)
		}
	}
}

// nullEngine satisfies Engine with no-op writes, isolating the serving
// codec's own allocations from the synopsis maintenance the engine suites
// benchmark separately.
type nullEngine struct{}

func (nullEngine) Do(context.Context, janus.Request) (janus.Response, error) {
	return janus.Response{}, nil
}
func (nullEngine) InsertBatch([]janus.Tuple) error { return nil }
func (nullEngine) DeleteBatch(ids []int64) (int, error) {
	return len(ids), nil
}
func (nullEngine) Stats() janus.EngineStats { return janus.EngineStats{} }
func (nullEngine) StatsFor(string) (janus.TemplateStats, error) {
	return janus.TemplateStats{}, nil
}
func (nullEngine) Template(string) (janus.Template, bool) { return janus.Template{}, false }
func (nullEngine) Templates() []string                    { return nil }

// TestIngestBinaryAllocs pins the binary ingest codec's allocation budget
// over a null engine: decoding a 512-tuple segment-log chunk must cost a
// fixed number of allocations (the tuple slice plus one shared attribute
// arena), not O(tuples) — the regression this guards is a per-tuple slice
// creeping back into the chunk decoder or the dispatch path.
func TestIngestBinaryAllocs(t *testing.T) {
	fresh, err := workload.Generate(workload.NYCTaxi, 512, 5_000_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	body := transport.EncodeIngestRequest(fresh, []int64{1, 2, 3})
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(200, func() {
		out, _, err := IngestBinary(nullEngine{}, nil, body, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if allocs > 8 {
		t.Fatalf("binary ingest codec allocates %.0f/op for 512 tuples, want a fixed single-digit count", allocs)
	}
}
