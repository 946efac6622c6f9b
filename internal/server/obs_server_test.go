package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	janus "janusaqp"
	"janusaqp/internal/obs"
	"janusaqp/internal/transport"
)

// syncBuffer is a mutex-guarded log sink: the handler goroutine writes
// records while the test goroutine reads them back.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// getBody GETs url and returns the response plus its body.
func getBody(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// groupStageSumMicros adds the group-level (shard-less) trace stages other
// than syncWait — the set the API contract says sums to ElapsedMicros.
func groupStageSumMicros(trace []TraceStageV2) float64 {
	var sum float64
	for _, st := range trace {
		if st.Shard == nil && st.Stage != "syncWait" {
			sum += st.Micros
		}
	}
	return sum
}

// checkTraceSum requires the group-level stages to sum to ElapsedMicros
// within 10%, plus one microsecond for ElapsedMicros's integer truncation
// (the underlying durations sum exactly; the wire loses sub-µs).
func checkTraceSum(t *testing.T, res QueryResultV2) {
	t.Helper()
	sum := groupStageSumMicros(res.Trace)
	elapsed := float64(res.ElapsedMicros)
	slack := 0.10*elapsed + 1.0
	if diff := sum - elapsed; diff < -slack || diff > slack {
		t.Fatalf("trace stages sum to %.2fµs, elapsedMicros is %d (allowed ±%.2f): %+v",
			sum, res.ElapsedMicros, slack, res.Trace)
	}
}

// TestV2QueryTraceSingleEngine checks the traced single-engine response:
// opt-in only, resolve + answer stages with no shard index, durations
// summing to the reported elapsed time.
func TestV2QueryTraceSingleEngine(t *testing.T) {
	eng, _ := newTestEngine(t, 8000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v2/query", map[string]any{
		"sql": "SELECT SUM(tripDistance) FROM trips",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var plain QueryResultV2
	decodeInto(t, raw, &plain)
	if plain.Trace != nil {
		t.Fatalf("untraced request returned a trace: %+v", plain.Trace)
	}

	resp, raw = postJSON(t, ts.URL+"/v2/query", map[string]any{
		"sql":   "SELECT SUM(tripDistance) FROM trips",
		"trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var traced QueryResultV2
	decodeInto(t, raw, &traced)
	stages := map[string]bool{}
	for _, st := range traced.Trace {
		if st.Shard != nil {
			t.Fatalf("single engine emitted per-shard stage %+v", st)
		}
		stages[st.Stage] = true
	}
	if !stages["resolve"] || !stages["answer"] {
		t.Fatalf("trace stages %v, want resolve and answer", stages)
	}
	checkTraceSum(t, traced)
}

// TestV2QueryTraceShardGroup checks the scatter-gather trace shape over
// HTTP: group-level resolve/scatter/merge plus one per-shard answer stage
// per shard, each carrying its shard index.
func TestV2QueryTraceShardGroup(t *testing.T) {
	const shards = 4
	group, _ := newTestShardGroup(t, 12000, shards)
	srv := New(group, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v2/query", map[string]any{
		"template": "trips", "func": "COUNT", "trace": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var res QueryResultV2
	decodeInto(t, raw, &res)
	stages := map[string]bool{}
	answered := map[int]bool{}
	for _, st := range res.Trace {
		if st.Shard != nil {
			if st.Stage != "answer" {
				t.Fatalf("per-shard stage %q, want only answer", st.Stage)
			}
			if *st.Shard < 0 || *st.Shard >= shards {
				t.Fatalf("shard index %d out of range", *st.Shard)
			}
			answered[*st.Shard] = true
			continue
		}
		stages[st.Stage] = true
	}
	if !stages["resolve"] || !stages["scatter"] || !stages["merge"] {
		t.Fatalf("group-level stages %v, want resolve, scatter, merge", stages)
	}
	if len(answered) != shards {
		t.Fatalf("per-shard answer stages from %d shards, want %d", len(answered), shards)
	}
	checkTraceSum(t, res)
}

// TestSlowQueryLogEmission runs one server with an always-firing threshold
// and one with an unreachable threshold: the first logs every query with
// its request ID and counts it, the second stays silent.
func TestSlowQueryLogEmission(t *testing.T) {
	eng, _ := newTestEngine(t, 8000)
	var buf syncBuffer
	srv := New(eng, Options{
		Logger:    obs.NewLogger(&buf, slog.LevelWarn, "json", "janusd"),
		SlowQuery: time.Nanosecond,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One JSON query, then a SQL and an on-keys query in the binary codec:
	// both codecs answer through the same Server.answer, so each is logged
	// under its own kind.
	const sql = "SELECT SUM(tripDistance) FROM trips"
	resp, raw := postJSON(t, ts.URL+"/v2/query", map[string]any{"sql": sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	for _, req := range []janus.Request{
		{SQL: sql},
		{Template: "trips", Query: janus.Query{Func: janus.FuncCount, AggIndex: -1}, OnKeys: []int{0}},
	} {
		if resp, out := postBinary(t, ts.URL+"/v2/query", transport.EncodeQueryRequest(req)); resp.StatusCode != http.StatusOK {
			t.Fatalf("binary %+v: status %d: %v", req, resp.StatusCode, transport.DecodeErrorBody(out))
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []struct{ kind, source string }{{"sql", sql}, {"sql", sql}, {"onKeys", "trips"}}
	if len(lines) != len(want) {
		t.Fatalf("%d slow-query records, want %d: %q", len(lines), len(want), buf.String())
	}
	for i, line := range lines {
		var rec map[string]any
		decodeInto(t, []byte(line), &rec)
		if rec["msg"] != "slow query" || rec["requestId"] == "" || rec["requestId"] == nil {
			t.Fatalf("record %d is not a slow-query record with a requestId: %v", i, rec)
		}
		if rec["kind"] != want[i].kind || rec["query"] != want[i].source {
			t.Fatalf("record %d is %v %q, want %s %q", i, rec["kind"], rec["query"], want[i].kind, want[i].source)
		}
	}
	_, metricsRaw := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsRaw), "janusd_slow_queries_total 3") {
		t.Fatalf("janusd_slow_queries_total did not count all three:\n%s", metricsRaw)
	}

	// Same query under an unreachable threshold: silence.
	eng2, _ := newTestEngine(t, 8000)
	var quiet syncBuffer
	srv2 := New(eng2, Options{
		Logger:    obs.NewLogger(&quiet, slog.LevelWarn, "json", "janusd"),
		SlowQuery: time.Minute,
	})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, raw = postJSON(t, ts2.URL+"/v2/query", map[string]any{
		"sql": "SELECT SUM(tripDistance) FROM trips",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := quiet.String(); strings.Contains(got, "slow query") {
		t.Fatalf("query below threshold was logged: %q", got)
	}
}

// TestRequestIDPropagation checks the request-ID contract: every response
// carries X-Request-Id, error bodies echo it, and an inbound ID is honored
// so a client's correlation key survives into the daemon's logs.
func TestRequestIDPropagation(t *testing.T) {
	eng, _ := newTestEngine(t, 4000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Success path: a generated ID on the response.
	resp, _ := postJSON(t, ts.URL+"/v2/query", map[string]any{"sql": "SELECT COUNT(*) FROM trips"})
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("success response carries no X-Request-Id")
	}

	// Error path: the body's requestId matches the header.
	resp, raw := postJSON(t, ts.URL+"/v2/query", map[string]any{"sql": "SELECT BOGUS"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	var er ErrorResponse
	decodeInto(t, raw, &er)
	if er.RequestID == "" || er.RequestID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("error body requestId %q, header %q", er.RequestID, resp.Header.Get("X-Request-Id"))
	}

	// Inbound ID is honored, not replaced.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v2/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-rid-42")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if got := hr.Header.Get("X-Request-Id"); got != "client-rid-42" {
		t.Fatalf("inbound request ID replaced: got %q", got)
	}
}

// TestObservabilityMetricSeries drives every query kind and an ingest
// batch, then checks the deep series on /metrics: per-kind latency,
// per-shard answer spans, engine span histograms, and the engine gauges.
func TestObservabilityMetricSeries(t *testing.T) {
	eng, _ := newTestEngine(t, 8000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []map[string]any{
		{"sql": "SELECT SUM(tripDistance) FROM trips"},
		{"template": "trips", "func": "COUNT"},
		{"template": "trips", "func": "COUNT", "onKeys": []int{0}},
	} {
		resp, raw := postJSON(t, ts.URL+"/v2/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %v: status %d: %s", body, resp.StatusCode, raw)
		}
	}
	// The binary codec feeds the same per-kind series.
	for _, req := range []janus.Request{
		{SQL: "SELECT SUM(tripDistance) FROM trips"},
		{Template: "trips", Query: janus.Query{Func: janus.FuncCount, AggIndex: -1}, OnKeys: []int{0}},
	} {
		if resp, out := postBinary(t, ts.URL+"/v2/query", transport.EncodeQueryRequest(req)); resp.StatusCode != http.StatusOK {
			t.Fatalf("binary %+v: status %d: %v", req, resp.StatusCode, transport.DecodeErrorBody(out))
		}
	}
	resp, raw := postJSON(t, ts.URL+"/v2/ingest", map[string]any{
		"tuples": []map[string]any{{"id": 9_000_001, "key": []float64{1234}, "vals": []float64{3.1, 12.5, 1}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
	}

	_, metricsRaw := getBody(t, ts.URL+"/metrics")
	out := string(metricsRaw)
	for _, want := range []string{
		"janusd_v2_query_requests_total 5",
		"janusd_v2_ingest_requests_total 1",
		`janusd_query_kind_seconds_count{kind="sql"} 2`,
		`janusd_query_kind_seconds_count{kind="structured"} 1`,
		`janusd_query_kind_seconds_count{kind="onKeys"} 2`,
		`janusd_shard_answer_seconds_count{shard="0"}`,
		`janusd_engine_span_seconds_count{span="insert_batch"} 1`,
		"janusd_archive_rows 8001",
		"janusd_goroutines ",
		"janusd_heap_alloc_bytes ",
		"janusd_synopsis_bytes ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition is missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestAdminEndpointsGated checks that /v2/admin/debug and the pprof
// handlers exist behind EnableAdmin and are absent — 404, indistinguishable
// from any unknown path — without it.
func TestAdminEndpointsGated(t *testing.T) {
	eng, _ := newTestEngine(t, 4000)
	srv := New(eng, Options{EnableAdmin: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := getBody(t, ts.URL+"/v2/admin/debug")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug status %d: %s", resp.StatusCode, raw)
	}
	var dbg DebugResponse
	decodeInto(t, raw, &dbg)
	if dbg.GoVersion == "" || dbg.GoMaxProcs < 1 || dbg.NumGoroutine < 1 {
		t.Fatalf("implausible debug payload: %+v", dbg)
	}
	if dbg.Stats.ArchiveRows != 4000 {
		t.Fatalf("debug stats report %d rows, want 4000", dbg.Stats.ArchiveRows)
	}
	if resp, _ := getBody(t, ts.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with admin enabled", resp.StatusCode)
	}

	eng2, _ := newTestEngine(t, 4000)
	srv2 := New(eng2, Options{})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if resp, _ := getBody(t, ts2.URL+"/v2/admin/debug"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("debug status %d without admin, want 404", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts2.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof status %d without admin, want 404", resp.StatusCode)
	}
}

// TestStatsPerShardBreakdown checks that /v2/stats over a ShardGroup
// carries the per-shard breakdown and that the shard rows sum to the
// merged totals — the straggler/skew diagnosis view.
func TestStatsPerShardBreakdown(t *testing.T) {
	const shards = 4
	group, _ := newTestShardGroup(t, 12000, shards)
	srv := New(group, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := getBody(t, ts.URL+"/v2/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var st janus.EngineStats
	decodeInto(t, raw, &st)
	if len(st.Shards) != shards {
		t.Fatalf("stats carry %d shard rows, want %d", len(st.Shards), shards)
	}
	var rows int64
	for i, sh := range st.Shards {
		if sh.ArchiveRows == 0 {
			t.Fatalf("shard %d reports an empty archive", i)
		}
		if len(sh.Shards) != 0 {
			t.Fatalf("shard %d row nests its own breakdown", i)
		}
		rows += sh.ArchiveRows
	}
	if rows != st.ArchiveRows {
		t.Fatalf("shard rows sum to %d, merged total is %d", rows, st.ArchiveRows)
	}

	// A single engine reports no breakdown.
	eng, _ := newTestEngine(t, 4000)
	srv2 := New(eng, Options{})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	_, raw = getBody(t, ts2.URL+"/v2/stats")
	var one janus.EngineStats
	decodeInto(t, raw, &one)
	if len(one.Shards) != 0 {
		t.Fatalf("single engine reports %d shard rows", len(one.Shards))
	}
}
