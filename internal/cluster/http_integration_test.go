package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	janus "janusaqp"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// TestClusterHTTPIntegration boots the full distributed topology on
// loopback — a coordinator fronting 2 durable shard nodes plus a warm
// standby for shard 0 — and runs the v2 HTTP suite against the
// coordinator's server: the whole HTTP surface (query, ingest, templates,
// stats, metrics, error taxonomy, tracing) must work unchanged over remote
// shards, through and past a primary kill. This is the CI integration
// drill (see .github/workflows/ci.yml, job cluster-integration).
func TestClusterHTTPIntegration(t *testing.T) {
	cfg := clusterConfig()
	ctx := context.Background()

	boot, bootParts := bootRows(t, 2000, 2)
	shards := []*durableShard{
		bootDurableShard(t, bootParts[0], 0, cfg),
		bootDurableShard(t, bootParts[1], 1, cfg),
	}
	for _, ds := range shards {
		if err := ds.eng.RegisterSchema("trips", janus.TableSchema{
			Table:    "trips",
			PredCols: []string{"pickup"},
			AggCols:  []string{"distance", "fare", "passengers"},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Warm standby for shard 0, streaming from the primary's checkpoint.
	if _, err := shards[0].store.WriteCheckpoint(shards[0].eng); err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(ctx, t.TempDir(), transport.NewClient(shards[0].addr), cfg.WithShardSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	sbAddr, _ := serveNode(t, NewStandbyNode(sb))
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	go sb.Run(runCtx, 2*time.Millisecond)

	coord, err := NewCoordinator([]string{shards[0].addr, shards[1].addr}, map[int]string{0: sbAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := server.New(coord, server.Options{})
	defer srv.Close()
	coord.RegisterMetrics(srv.Registry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) (int, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}

	// --- ingest through the coordinator --------------------------------
	wave, err := workload.Generate(workload.NYCTaxi, 1000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]map[string]any, len(wave))
	for i, tp := range wave {
		tuples[i] = map[string]any{"id": tp.ID, "key": []float64(tp.Key), "vals": tp.Vals}
	}
	code, out := post("/v2/ingest", map[string]any{
		"tuples":    tuples,
		"deleteIds": []int64{wave[0].ID, 77_000_001}, // one live, one unknown
	})
	if code != http.StatusOK {
		t.Fatalf("/v2/ingest: %d: %s", code, out)
	}
	var ing struct {
		Inserted int     `json:"inserted"`
		Deleted  int     `json:"deleted"`
		Missing  []int64 `json:"missing"`
	}
	if err := json.Unmarshal(out, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Inserted != len(wave) || ing.Deleted != 1 || len(ing.Missing) != 1 || ing.Missing[0] != 77_000_001 {
		t.Fatalf("/v2/ingest reply %+v", ing)
	}
	liveRows := float64(len(boot) + len(wave) - 1)

	// --- query: structured, SQL, batch, trace --------------------------
	queryCount := func() float64 {
		t.Helper()
		code, out := post("/v2/query", map[string]any{"template": "trips", "func": "COUNT"})
		if code != http.StatusOK {
			t.Fatalf("/v2/query: %d: %s", code, out)
		}
		var res struct {
			Estimate float64 `json:"estimate"`
		}
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatal(err)
		}
		return res.Estimate
	}
	if got := queryCount(); got != liveRows {
		t.Fatalf("cluster COUNT over HTTP = %v, want %v", got, liveRows)
	}
	code, out = post("/v2/query", map[string]any{"sql": "SELECT COUNT(*) FROM trips"})
	if code != http.StatusOK {
		t.Fatalf("SQL over the cluster: %d: %s", code, out)
	}
	var sqlRes struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.Unmarshal(out, &sqlRes); err != nil {
		t.Fatal(err)
	}
	if sqlRes.Estimate != liveRows {
		t.Fatalf("SQL COUNT = %v, want %v", sqlRes.Estimate, liveRows)
	}
	code, out = post("/v2/query", map[string]any{"requests": []any{
		map[string]any{"template": "trips", "func": "COUNT"},
		map[string]any{"template": "no-such-template", "func": "COUNT"},
	}})
	if code != http.StatusOK {
		t.Fatalf("batch query: %d: %s", code, out)
	}
	var batch struct {
		Results []struct {
			Estimate float64 `json:"estimate"`
			Error    string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Results[0].Estimate != liveRows || batch.Results[1].Error == "" {
		t.Fatalf("batch reply: %s", out)
	}
	code, out = post("/v2/query", map[string]any{"template": "trips", "func": "SUM", "trace": true})
	if code != http.StatusOK {
		t.Fatalf("traced query: %d: %s", code, out)
	}
	var traced struct {
		Trace []struct {
			Stage string `json:"stage"`
			Shard *int   `json:"shard"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(out, &traced); err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, st := range traced.Trace {
		stages[st.Stage]++
	}
	if stages["scatter"] != 1 || stages["merge"] != 1 || stages["rpc"] != 2 || stages["answer"] != 2 {
		t.Fatalf("cluster trace stages = %v: %s", stages, out)
	}

	// --- error taxonomy over remote shards ------------------------------
	if code, _ := post("/v2/query", map[string]any{"template": "nope", "func": "COUNT"}); code != http.StatusNotFound {
		t.Fatalf("unknown template = %d, want 404", code)
	}
	if code, _ := post("/v2/query", map[string]any{"template": "trips", "func": "COUNT", "minSyncOffset": 10}); code != http.StatusBadRequest {
		t.Fatalf("minSyncOffset through coordinator = %d, want 400", code)
	}
	if code, _ := post("/v2/ingest", map[string]any{"tuples": tuples[1:2]}); code != http.StatusConflict {
		t.Fatalf("duplicate-id ingest = %d, want 409", code)
	}

	// --- admin surface ---------------------------------------------------
	code, out = get("/v2/templates")
	if code != http.StatusOK || !strings.Contains(string(out), "trips") {
		t.Fatalf("/v2/templates: %d: %s", code, out)
	}
	code, out = get("/v2/stats")
	if code != http.StatusOK {
		t.Fatalf("/v2/stats: %d: %s", code, out)
	}
	var st struct {
		ArchiveRows int64 `json:"archiveRows"`
	}
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.ArchiveRows != int64(liveRows) {
		t.Fatalf("merged stats rows = %d, want %v", st.ArchiveRows, liveRows)
	}
	code, out = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, series := range []string{"janusd_rpc_seconds", "janusd_rpc_conns_idle", "janusd_rpc_dials_total", "janusd_cluster_failovers_total"} {
		if !strings.Contains(string(out), series) {
			t.Fatalf("/metrics does not export %s", series)
		}
	}

	// --- kill the shard-0 primary: the surface must not notice ----------
	b0 := shards[0].store.Broker()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sbb := sb.Store().Broker()
		ins, del := sbb.Inserts.Len(), sbb.Deletes.Len()
		if ins >= b0.Inserts.Len() && del >= b0.Deletes.Len() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shards[0].kill()
	if got := queryCount(); got != liveRows {
		t.Fatalf("COUNT after primary kill = %v, want %v: failover changed the answer", got, liveRows)
	}
	_, out = get("/metrics")
	if !strings.Contains(string(out), "janusd_cluster_failovers_total 1") {
		t.Fatal("/metrics does not report the failover")
	}

	// --- kill shard 1 (no standby): honest 503 with the shard named -----
	shards[1].kill()
	code, out = post("/v2/query", map[string]any{"template": "trips", "func": "COUNT"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query with shard 1 dead = %d, want 503: %s", code, out)
	}
	if !strings.Contains(string(out), "shard 1") {
		t.Fatalf("503 body does not name the failed shard: %s", out)
	}
}
