package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	janus "janusaqp"
	"janusaqp/internal/workload"
)

// newTestEngine boots an engine over rows taxi tuples with the "trips"
// template (predicate pickupTime) and its SQL schema registered, mirroring
// the janusd bootstrap.
func newTestEngine(t testing.TB, rows int) (*janus.Engine, []janus.Tuple) {
	t.Helper()
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b := janus.NewBroker()
	for _, tp := range tuples {
		b.PublishInsert(tp)
	}
	eng := janus.NewEngine(janus.Config{LeafNodes: 64, SampleRate: 0.02, CatchUpRate: 0.10, Seed: 7}, b)
	if err := eng.AddTemplate(janus.Template{
		Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterSchema("trips", janus.TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}); err != nil {
		t.Fatal(err)
	}
	return eng, tuples
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func decodeInto(t testing.TB, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
}

// TestIntegrationSQLOverHTTP is the acceptance-criteria test: start the
// daemon's handler on a live listener, load data, issue a SQL query over
// HTTP, and require the returned confidence interval to cover the exact
// answer.
func TestIntegrationSQLOverHTTP(t *testing.T) {
	eng, tuples := newTestEngine(t, 20000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lo, hi := 0.0, tuples[len(tuples)/2].Key[0] // first half of the timeline
	var truth float64
	for _, tp := range tuples {
		if tp.Key[0] >= lo && tp.Key[0] <= hi {
			truth += tp.Vals[0]
		}
	}

	sql := fmt.Sprintf(
		"SELECT SUM(tripDistance) FROM trips WHERE pickupTime BETWEEN %g AND %g WITH CONFIDENCE 0.999",
		lo, hi)
	resp, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var qr QueryResultV2
	decodeInto(t, raw, &qr)
	if qr.Lo > truth || truth > qr.Hi {
		t.Fatalf("interval [%g, %g] does not cover exact answer %g (estimate %g)",
			qr.Lo, qr.Hi, truth, qr.Estimate)
	}
	if qr.Estimate <= 0 {
		t.Fatalf("estimate %g, want positive", qr.Estimate)
	}
}

func TestStructuredQueryInsertDelete(t *testing.T) {
	eng, tuples := newTestEngine(t, 10000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Baseline COUNT(*) over the whole universe.
	count := func() QueryResultV2 {
		resp, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "count"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("count status %d: %s", resp.StatusCode, raw)
		}
		var qr QueryResultV2
		decodeInto(t, raw, &qr)
		return qr
	}
	before := count()
	if before.Lo > float64(len(tuples)) || float64(len(tuples)) > before.Hi {
		t.Fatalf("count interval [%g, %g] misses %d", before.Lo, before.Hi, len(tuples))
	}

	// Batched insert of 500 fresh rows.
	batch := IngestRequest{}
	fresh, err := workload.Generate(workload.NYCTaxi, 500, 5_000_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range fresh {
		batch.Tuples = append(batch.Tuples, WireTuple{ID: tp.ID, Key: tp.Key, Vals: tp.Vals})
	}
	resp, raw := postJSON(t, ts.URL+"/v2/ingest", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, raw)
	}
	var ir IngestResponse
	decodeInto(t, raw, &ir)
	if ir.Inserted != 500 {
		t.Fatalf("Inserted = %d, want 500", ir.Inserted)
	}

	after := count()
	want := float64(len(tuples) + 500)
	if after.Lo > want || want > after.Hi {
		t.Fatalf("count interval [%g, %g] misses %g after insert", after.Lo, after.Hi, want)
	}

	// Batched delete: 2 live IDs and one unknown.
	resp, raw = postJSON(t, ts.URL+"/v2/ingest", IngestRequest{DeleteIDs: []int64{fresh[0].ID, fresh[1].ID, 99_999_999}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", resp.StatusCode, raw)
	}
	var dr IngestResponse
	decodeInto(t, raw, &dr)
	if dr.Deleted != 2 || len(dr.Missing) != 1 || dr.Missing[0] != 99_999_999 {
		t.Fatalf("delete response = %+v, want 2 deleted, missing [99999999]", dr)
	}
}

func TestTemplatesStatsMetricsEndpoints(t *testing.T) {
	eng, _ := newTestEngine(t, 5000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A query so the latency histogram has at least one observation.
	postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "SUM"})

	resp, err := http.Get(ts.URL + "/v2/templates")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var tr TemplatesResponse
	decodeInto(t, raw, &tr)
	if len(tr.Templates) != 1 || tr.Templates[0].Name != "trips" {
		t.Fatalf("templates = %+v, want [trips]", tr)
	}

	resp, err = http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st janus.EngineStats
	decodeInto(t, raw, &st)
	if st.ArchiveRows != 5000 {
		t.Fatalf("ArchiveRows = %d, want 5000", st.ArchiveRows)
	}
	if len(st.Templates) != 1 || st.Templates[0].SynopsisBytes <= 0 {
		t.Fatalf("template stats = %+v, want one entry with positive synopsis bytes", st.Templates)
	}

	// Regression: stats must not leak a synopsis read lock — a write
	// immediately after /v2/stats has to succeed (it wedged forever when
	// Stats forgot to RUnlock).
	insDone := make(chan struct{})
	go func() {
		defer close(insDone)
		resp, raw := postJSON(t, ts.URL+"/v2/ingest",
			IngestRequest{Tuples: []WireTuple{{ID: 7_000_001, Key: []float64{1, 2, 3}, Vals: []float64{1, 1, 1}}}})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("insert after stats: status %d: %s", resp.StatusCode, raw)
		}
	}()
	select {
	case <-insDone:
	case <-time.After(10 * time.Second):
		t.Fatal("insert after /v2/stats wedged: leaked synopsis lock")
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"janusd_v2_query_requests_total 1",
		"# TYPE janusd_v2_query_latency_seconds histogram",
		"janusd_v2_query_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	eng, _ := newTestEngine(t, 5000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	cases := []struct {
		name, path, body string
		wantStatus       int
		wantErr          string
	}{
		{"malformed json", "/v2/query", `{"sql":`, http.StatusBadRequest, "malformed request body"},
		{"unknown field", "/v2/query", `{"quack":1}`, http.StatusBadRequest, "malformed request body"},
		{"neither sql nor template", "/v2/query", `{}`, http.StatusBadRequest, "needs sql or template"},
		{"both sql and template", "/v2/query", `{"sql":"SELECT COUNT(*) FROM trips","template":"trips"}`, http.StatusBadRequest, "not both"},
		{"unknown template", "/v2/query", `{"template":"nope","func":"SUM"}`, http.StatusNotFound, "unknown template"},
		{"unknown table", "/v2/query", `{"sql":"SELECT COUNT(*) FROM nope"}`, http.StatusNotFound, "no template registered"},
		{"malformed sql", "/v2/query", `{"sql":"SELEC COUNT(*) FROM trips"}`, http.StatusBadRequest, "sqlparse"},
		{"bad aggregate", "/v2/query", `{"template":"trips","func":"MEDIAN"}`, http.StatusBadRequest, "unknown aggregate function"},
		{"bad bounds arity", "/v2/query", `{"template":"trips","func":"SUM","min":[0,1],"max":[2,3]}`, http.StatusBadRequest, "predicate bounds"},
		{"inverted bounds", "/v2/query", `{"template":"trips","func":"SUM","min":[5],"max":[1]}`, http.StatusBadRequest, "inverted bounds"},
		{"bad confidence", "/v2/query", `{"template":"trips","func":"SUM","confidence":2}`, http.StatusBadRequest, "confidence"},
		{"non-predicate column", "/v2/query", `{"sql":"SELECT SUM(tripDistance) FROM trips WHERE nope < 5"}`, http.StatusBadRequest, "not a predicate column"},
		{"empty insert", "/v2/ingest", `{"tuples":[]}`, http.StatusBadRequest, "empty"},
		{"keyless tuple", "/v2/ingest", `{"tuples":[{"id":1000002,"vals":[1]}]}`, http.StatusBadRequest, "key attributes"},
		{"short vals", "/v2/ingest", `{"tuples":[{"id":1000001,"key":[1,2,3],"vals":[1]}]}`, http.StatusBadRequest, "aggregation attributes"},
		{"duplicate id", "/v2/ingest", `{"tuples":[{"id":3,"key":[1,2,3],"vals":[1,1,1]}]}`, http.StatusConflict, "duplicate"},
		{"empty delete", "/v2/ingest", `{"deleteIds":[]}`, http.StatusBadRequest, "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(tc.path, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			var er ErrorResponse
			decodeInto(t, []byte(body), &er)
			if !strings.Contains(er.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.wantErr)
			}
		})
	}

	// Method mismatches are rejected by the mux.
	resp, err := http.Get(ts.URL + "/v2/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v2/query status = %d, want 405", resp.StatusCode)
	}
}

// TestV2QuerySingleWithMetadata: a single /v2/query request answers with
// the estimate, its interval, and the response metadata.
func TestV2QuerySingleWithMetadata(t *testing.T) {
	eng, tuples := newTestEngine(t, 10000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "COUNT"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var qr QueryResultV2
	decodeInto(t, raw, &qr)
	if qr.Lo > float64(len(tuples)) || float64(len(tuples)) > qr.Hi {
		t.Fatalf("count interval [%g, %g] misses %d", qr.Lo, qr.Hi, len(tuples))
	}
	if qr.Template != "trips" || qr.SampleSize <= 0 || qr.Population <= 0 {
		t.Fatalf("metadata missing from v2 result: %s", raw)
	}

	// On-keys: predicate over dropoffTime (key dim 1), which the trips
	// template does not index.
	resp, raw = postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "COUNT",
		Min: []float64{0}, Max: []float64{1e12}, OnKeys: []int{1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("on-keys status %d: %s", resp.StatusCode, raw)
	}
	decodeInto(t, raw, &qr)
	if qr.Estimate <= 0 {
		t.Fatalf("on-keys estimate %g, want positive", qr.Estimate)
	}
}

// TestV2QueryBatched: a batched /v2/query answers every item in order,
// reporting per-item errors in place instead of failing the batch.
func TestV2QueryBatched(t *testing.T) {
	eng, tuples := newTestEngine(t, 10000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v2/query", map[string]any{
		"requests": []any{
			map[string]any{"template": "trips", "func": "COUNT"},
			map[string]any{"sql": "SELECT SUM(tripDistance) FROM trips"},
			map[string]any{"template": "nope", "func": "COUNT"},
			map[string]any{"sql": "SELEC broken"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var br QueryV2BatchResponse
	decodeInto(t, raw, &br)
	if len(br.Results) != 4 {
		t.Fatalf("got %d results, want 4: %s", len(br.Results), raw)
	}
	if br.Results[0].Error != "" || br.Results[0].Lo > float64(len(tuples)) || float64(len(tuples)) > br.Results[0].Hi {
		t.Errorf("item 0 = %+v, want a COUNT covering %d", br.Results[0], len(tuples))
	}
	if br.Results[1].Error != "" || br.Results[1].Estimate <= 0 {
		t.Errorf("item 1 = %+v, want a positive SQL SUM", br.Results[1])
	}
	if !strings.Contains(br.Results[2].Error, "unknown template") {
		t.Errorf("item 2 error = %q, want unknown template", br.Results[2].Error)
	}
	if !strings.Contains(br.Results[3].Error, "sqlparse") {
		t.Errorf("item 3 error = %q, want a parse error", br.Results[3].Error)
	}
}

// TestV2IngestAtomicity: /v2/ingest applies inserts atomically with typed
// statuses, and reports unknown delete ids without failing.
func TestV2IngestAtomicity(t *testing.T) {
	eng, tuples := newTestEngine(t, 10000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	count := func() float64 {
		_, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "COUNT"})
		var qr QueryResultV2
		decodeInto(t, raw, &qr)
		return qr.Estimate
	}
	before := count()

	// A schema-mismatched tuple mid-batch: 400, nothing applied.
	resp, raw := postJSON(t, ts.URL+"/v2/ingest", IngestRequest{
		Tuples: []WireTuple{
			{ID: 8_000_000, Key: []float64{1, 2, 3}, Vals: []float64{1, 1, 1}},
			{ID: 8_000_001, Key: []float64{1, 2, 3}, Vals: []float64{1}},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("schema mismatch status %d: %s", resp.StatusCode, raw)
	}
	if got := count(); got != before {
		t.Fatalf("count drifted %g -> %g across a rejected batch", before, got)
	}

	// A duplicate id: 409 Conflict, nothing applied.
	resp, raw = postJSON(t, ts.URL+"/v2/ingest", IngestRequest{
		Tuples: []WireTuple{
			{ID: 8_000_002, Key: []float64{1, 2, 3}, Vals: []float64{1, 1, 1}},
			{ID: tuples[0].ID, Key: []float64{1, 2, 3}, Vals: []float64{1, 1, 1}},
		},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status %d: %s", resp.StatusCode, raw)
	}
	if got := count(); got != before {
		t.Fatalf("count drifted %g -> %g across a duplicate batch", before, got)
	}

	// A valid combined batch: inserts land, one delete id is unknown.
	resp, raw = postJSON(t, ts.URL+"/v2/ingest", IngestRequest{
		Tuples: []WireTuple{
			{ID: 8_100_000, Key: []float64{1, 2, 3}, Vals: []float64{1, 1, 1}},
			{ID: 8_100_001, Key: []float64{4, 5, 6}, Vals: []float64{1, 1, 1}},
		},
		DeleteIDs: []int64{tuples[1].ID, 99_999_999},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid ingest status %d: %s", resp.StatusCode, raw)
	}
	var ir IngestResponse
	decodeInto(t, raw, &ir)
	if ir.Inserted != 2 || ir.Deleted != 1 || len(ir.Missing) != 1 || ir.Missing[0] != 99_999_999 {
		t.Fatalf("ingest response = %+v, want 2 inserted, 1 deleted, missing [99999999]", ir)
	}
	// Empty ingest is rejected.
	resp, _ = postJSON(t, ts.URL+"/v2/ingest", IngestRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest status %d, want 400", resp.StatusCode)
	}
}

// TestV2QueryTimeout: an unreachable minSyncOffset with a request-level
// timeout answers 504 instead of hanging.
func TestV2QueryTimeout(t *testing.T) {
	eng, _ := newTestEngine(t, 5000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "COUNT", MinSyncOffset: 1_000_000,
		TimeoutMillis: 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the wait")
	}
}

// TestInsertShortKeyRejected: a tuple whose key does not cover every
// registered template's predicate dims must be rejected up front — fed to
// the engine it would panic inside the synopsis projection and (recovered)
// leave the daemon serving a corrupt half-applied batch.
func TestInsertShortKeyRejected(t *testing.T) {
	eng, _ := newTestEngine(t, 5000)
	if err := eng.AddTemplate(janus.Template{
		Name: "fares", PredicateDims: []int{2}, AggIndex: 1, Agg: janus.Sum,
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v2/ingest",
		IngestRequest{Tuples: []WireTuple{{ID: 42_000_000, Key: []float64{1}, Vals: []float64{1, 1, 1}}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short-key insert status = %d, want 400 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "key attributes") {
		t.Fatalf("error does not mention key arity: %s", raw)
	}
	// The engine must still accept well-formed traffic afterwards.
	resp, raw = postJSON(t, ts.URL+"/v2/ingest",
		IngestRequest{Tuples: []WireTuple{{ID: 42_000_001, Key: []float64{1, 2, 3}, Vals: []float64{1, 1, 1}}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("well-formed insert after rejection: status %d: %s", resp.StatusCode, raw)
	}
}

// TestConcurrentQueryInsert drives mixed /v2/query and /v2/ingest traffic
// against a live server across two templates. Run under -race it checks
// the sharded engine locking end to end.
func TestConcurrentQueryInsert(t *testing.T) {
	eng, _ := newTestEngine(t, 8000)
	if err := eng.AddTemplate(janus.Template{
		Name: "fares", PredicateDims: []int{2}, AggIndex: 1, Agg: janus.Sum,
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		readers        = 6
		writers        = 2
		opsPerReader   = 60
		rowsPerWriter  = 300
		writeBatchSize = 20
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tmpl := "trips"
			if r%2 == 1 {
				tmpl = "fares"
			}
			for i := 0; i < opsPerReader; i++ {
				resp, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: tmpl, Func: "SUM"})
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("reader %d: status %d: %s", r, resp.StatusCode, raw)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fresh, err := workload.Generate(workload.NYCTaxi, rowsPerWriter, int64(10_000_000*(w+1)), int64(w+13))
			if err != nil {
				errc <- err
				return
			}
			for i := 0; i < len(fresh); i += writeBatchSize {
				batch := IngestRequest{}
				for _, tp := range fresh[i : i+writeBatchSize] {
					batch.Tuples = append(batch.Tuples, WireTuple{ID: tp.ID, Key: tp.Key, Vals: tp.Vals})
				}
				resp, raw := postJSON(t, ts.URL+"/v2/ingest", batch)
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("writer %d: status %d: %s", w, resp.StatusCode, raw)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// All writes landed: exact row count is visible in the stats snapshot.
	st := eng.Stats()
	want := int64(8000 + writers*rowsPerWriter)
	if st.ArchiveRows != want {
		t.Fatalf("ArchiveRows = %d, want %d", st.ArchiveRows, want)
	}
}

func TestAdminCheckpointEndpoint(t *testing.T) {
	eng, _ := newTestEngine(t, 4000)
	var calls int
	srv := New(eng, Options{Checkpoint: func() (janus.CheckpointInfo, error) {
		calls++
		var buf bytes.Buffer
		return eng.Checkpoint(&buf)
	}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v2/admin/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out CheckpointResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Templates != 1 || out.InsertOffset != 4000 || out.Bytes == 0 {
		t.Fatalf("checkpoint response %+v", out)
	}
	if calls != 1 {
		t.Fatalf("checkpoint sink called %d times, want 1", calls)
	}
	// The metrics surface records the write.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "janusd_checkpoints_total 1") {
		t.Fatalf("metrics missing checkpoint counter:\n%s", body)
	}
}

// TestAdminCompactEndpoint drives the durable admin surface end to end:
// a store-backed engine ingests past its checkpoint, POST
// /v2/admin/compact snapshots and rotates the logs, and the server keeps
// answering — with the data dir now bounded by live data plus tail.
func TestAdminCompactEndpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tuples, err := workload.Generate(workload.NYCTaxi, 4000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	st.Broker().PublishInsertBatch(tuples)
	eng := janus.NewEngine(janus.Config{LeafNodes: 64, SampleRate: 0.02, CatchUpRate: 0.10, Seed: 7}, st.Broker())
	if err := eng.AddTemplate(janus.Template{
		Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Options{
		Checkpoint:  func() (janus.CheckpointInfo, error) { return st.WriteCheckpoint(eng) },
		Compact:     st.Compact,
		WriteHealth: st.WriteErr,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v2/admin/compact", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out CompactResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.InsertsDropped != 4000 {
		t.Fatalf("compact dropped %d insert records, want 4000: %s", out.InsertsDropped, raw)
	}
	if out.LogBytesAfter >= out.LogBytesBefore {
		t.Fatalf("compaction did not shrink the logs: %d -> %d bytes", out.LogBytesBefore, out.LogBytesAfter)
	}
	if out.Checkpoint.ArchiveRows != 4000 || out.Checkpoint.InsertOffset != 4000 {
		t.Fatalf("compact anchored on checkpoint %+v", out.Checkpoint)
	}
	// The compacted store still serves ingest and queries; offsets are
	// stable across the rotation.
	if resp, raw := postJSON(t, ts.URL+"/v2/ingest", IngestRequest{
		Tuples: []WireTuple{{ID: 900001, Key: []float64{1}, Vals: []float64{1, 2, 3}}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after compaction: status %d: %s", resp.StatusCode, raw)
	}
	if resp, raw := postJSON(t, ts.URL+"/v2/query", QueryRequestV2{Template: "trips", Func: "COUNT"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after compaction: status %d: %s", resp.StatusCode, raw)
	}
	// A second pass against the new checkpoint reclaims the fresh row.
	resp, raw = postJSON(t, ts.URL+"/v2/admin/compact", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second compact: status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.InsertsDropped != 1 || out.Checkpoint.InsertOffset != 4001 {
		t.Fatalf("second compact: %s", raw)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "janusd_compactions_total 2") {
		t.Fatalf("metrics missing compaction counter:\n%s", body)
	}
}

func TestAdminCompactWithoutStoreIs503(t *testing.T) {
	eng, _ := newTestEngine(t, 1000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, raw := postJSON(t, ts.URL+"/v2/admin/compact", struct{}{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s (want 503 without a durable store)", resp.StatusCode, raw)
	}
}

func TestAdminCheckpointWithoutStoreIs503(t *testing.T) {
	eng, _ := newTestEngine(t, 2000)
	srv := New(eng, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, raw := postJSON(t, ts.URL+"/v2/admin/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s (want 503 without a durable store)", resp.StatusCode, raw)
	}
}

func TestBackgroundCheckpointer(t *testing.T) {
	eng, _ := newTestEngine(t, 2000)
	var mu sync.Mutex
	calls := 0
	srv := New(eng, Options{
		CheckpointInterval: 5 * time.Millisecond,
		Checkpoint: func() (janus.CheckpointInfo, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			return janus.CheckpointInfo{}, nil
		},
	})
	defer srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := calls
		mu.Unlock()
		if n >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer ran %d times in 2s, want >= 2", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newTestShardGroup boots a hash-sharded group over rows taxi tuples with
// the same template and schema as newTestEngine.
func newTestShardGroup(t testing.TB, rows, shards int) (*janus.ShardGroup, []janus.Tuple) {
	t.Helper()
	tuples, err := workload.Generate(workload.NYCTaxi, rows, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	parts := janus.SplitByShard(tuples, shards)
	engines := make([]*janus.Engine, shards)
	for i := range engines {
		b := janus.NewBroker()
		b.PublishInsertBatch(parts[i])
		engines[i] = janus.NewEngine(janus.Config{
			LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 7,
		}.WithShardSeed(i), b)
	}
	group, err := janus.NewShardGroup(engines)
	if err != nil {
		t.Fatal(err)
	}
	if err := group.AddTemplate(janus.Template{
		Name: "trips", PredicateDims: []int{0}, AggIndex: 0, Agg: janus.Sum,
	}); err != nil {
		t.Fatal(err)
	}
	if err := group.RegisterSchema("trips", janus.TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	}); err != nil {
		t.Fatal(err)
	}
	return group, tuples
}

// TestServerOverShardGroup routes the whole v2 surface through a
// ShardGroup behind the server interface: scatter-gather SQL and
// structured queries, hash-partitioned ingest with deletions, and merged
// stats, all over live HTTP.
func TestServerOverShardGroup(t *testing.T) {
	const rows = 16000
	group, tuples := newTestShardGroup(t, rows, 4)
	srv := New(group, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var exactCount float64 = rows
	var exactSum float64
	for _, tp := range tuples {
		exactSum += tp.Vals[0]
	}

	// Scatter-gather SQL over the full table: catch-up is complete, so the
	// merged estimate is the exact sum.
	resp, raw := postJSON(t, ts.URL+"/v2/query", map[string]any{
		"sql": "SELECT SUM(tripDistance) FROM trips",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sql query: %d %s", resp.StatusCode, raw)
	}
	var qr QueryResultV2
	decodeInto(t, raw, &qr)
	if got := qr.Estimate; got < exactSum*0.999999 || got > exactSum*1.000001 {
		t.Fatalf("merged SUM %g, want %g", got, exactSum)
	}
	if qr.Population != int64(rows) {
		t.Fatalf("merged population %d, want %d", qr.Population, rows)
	}

	// Hash-partitioned ingest: the batch splits across all four shards.
	batch := make([]map[string]any, 64)
	for i := range batch {
		batch[i] = map[string]any{
			"id": 5_000_000 + i, "key": []float64{float64(i)}, "vals": []float64{1, 2, 3},
		}
	}
	resp, raw = postJSON(t, ts.URL+"/v2/ingest", map[string]any{
		"tuples":    batch,
		"deleteIds": []int64{tuples[0].ID, tuples[1].ID, 9_999_999},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, raw)
	}
	var ir IngestResponse
	decodeInto(t, raw, &ir)
	if ir.Inserted != 64 || ir.Deleted != 2 || len(ir.Missing) != 1 || ir.Missing[0] != 9_999_999 {
		t.Fatalf("ingest response = %+v, want 64 inserted, 2 deleted, missing [9999999]", ir)
	}
	exactCount += 64 - 2

	resp, raw = postJSON(t, ts.URL+"/v2/query", map[string]any{
		"template": "trips", "func": "COUNT",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count query: %d %s", resp.StatusCode, raw)
	}
	decodeInto(t, raw, &qr)
	if qr.Estimate != exactCount {
		t.Fatalf("merged COUNT after ingest = %g, want exactly %g", qr.Estimate, exactCount)
	}

	// Merged stats: archive rows across shards, one template entry.
	st, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	stRaw, err := io.ReadAll(st.Body)
	if err != nil {
		t.Fatal(err)
	}
	var es janus.EngineStats
	decodeInto(t, stRaw, &es)
	if es.ArchiveRows != int64(exactCount) {
		t.Fatalf("merged archive rows = %d, want %g", es.ArchiveRows, exactCount)
	}
	if len(es.Templates) != 1 || es.Templates[0].Name != "trips" {
		t.Fatalf("merged templates = %+v, want one trips entry", es.Templates)
	}
}

// TestAdminReshardEndpoint drives a live reshard over HTTP: POST
// /v2/admin/reshard splits a 2-shard group to 4 behind live traffic
// routing, the GET side reports the finished progress, and the metrics
// surface records the move. A daemon without a resharder answers 503.
func TestAdminReshardEndpoint(t *testing.T) {
	const rows = 8000
	group, tuples := newTestShardGroup(t, rows, 2)
	cfg := janus.Config{LeafNodes: 32, SampleRate: 0.05, CatchUpRate: 1.0, Seed: 7}
	srv := New(group, Options{
		Reshard: func(ctx context.Context, targetShards int) (*janus.ReshardReport, error) {
			return group.Reshard(ctx, janus.ReshardOptions{TargetShards: targetShards, Config: cfg})
		},
		ReshardStatus: group.ReshardProgress,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, raw := postJSON(t, ts.URL+"/v2/admin/reshard", ReshardRequest{Shards: 0}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shards=0: status %d: %s", resp.StatusCode, raw)
	}
	resp, raw := postJSON(t, ts.URL+"/v2/admin/reshard", ReshardRequest{Shards: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out ReshardResponse
	decodeInto(t, raw, &out)
	if out.FromShards != 2 || out.ToShards != 4 || out.Epoch != 1 || out.RowsCopied != rows {
		t.Fatalf("reshard response %+v", out)
	}
	if group.NumShards() != 4 {
		t.Fatalf("group serves %d shards after the endpoint, want 4", group.NumShards())
	}

	// Progress reflects the finished move.
	gresp, err := http.Get(ts.URL + "/v2/admin/reshard")
	if err != nil {
		t.Fatal(err)
	}
	praw, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	var prog janus.ReshardProgress
	decodeInto(t, praw, &prog)
	if prog.Active || prog.Phase != "done" || prog.ToShards != 4 {
		t.Fatalf("progress %+v", prog)
	}

	// The resharded group still answers exactly over the moved data.
	var exactSum float64
	for _, tp := range tuples {
		exactSum += tp.Vals[0]
	}
	qresp, qraw := postJSON(t, ts.URL+"/v2/query", map[string]any{
		"sql": "SELECT SUM(tripDistance) FROM trips",
	})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query after reshard: status %d: %s", qresp.StatusCode, qraw)
	}
	var qout QueryResultV2
	decodeInto(t, qraw, &qout)
	if math.Abs(qout.Estimate-exactSum) > 1e-6*math.Abs(exactSum) {
		t.Fatalf("post-reshard SUM = %+v, want %.3f", qout, exactSum)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"janusd_reshards_total 1", "janusd_reshard_rows_copied_total 8000", "janusd_layout_epoch 1"} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// A fixed-layout daemon refuses the surface.
	eng, _ := newTestEngine(t, 100)
	fixed := New(eng, Options{})
	defer fixed.Close()
	fts := httptest.NewServer(fixed.Handler())
	defer fts.Close()
	if resp, raw := postJSON(t, fts.URL+"/v2/admin/reshard", ReshardRequest{Shards: 2}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fixed layout: status %d: %s", resp.StatusCode, raw)
	}
}
