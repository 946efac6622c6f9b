package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	janus "janusaqp"
	"janusaqp/client"
	"janusaqp/internal/obs"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// TestFlagTable pins the command line: the 25 flags and their defaults,
// and — per role, from the role table — one required-missing, one
// refused-with-a-note and one plainly unread flag, plus the range checks.
func TestFlagTable(t *testing.T) {
	defaults := map[string]string{
		"addr": ":8080", "dataset": "taxi", "rows": "200000", "seed": "42", "leaves": "128",
		"sample-rate": "0.01", "catchup-rate": "0.1",
		"auto-repartition": "true", "stream": "0", "data": "", "checkpoint-interval": "30s",
		"retain": "compact", "shards": "1", "log-level": "info", "log-format": "text",
		"slow-query": "0s", "admin": "false", "role": "single", "rpc": ":9101", "peers": "",
		"standbys": "", "primary": "", "shard-index": "0", "shard-count": "1", "replicate-interval": "20ms",
	}
	var c daemonConfig
	n := 0
	c.flagSet().VisitAll(func(f *flag.Flag) {
		n++
		if want, ok := defaults[f.Name]; !ok || f.DefValue != want {
			t.Errorf("flag -%s default %q, want %q (known: %v)", f.Name, f.DefValue, want, ok)
		}
	})
	if n != len(defaults) || n != 25 {
		t.Errorf("janusd has %d flags, want 25", n)
	}

	for _, tc := range []struct {
		args string
		want string // "" = accepted
	}{
		{"", ""},
		{"-shards 4 -data /d -rpc :9101", ""},
		{"-role single -peers a:1", "-role single does not read -peers"},
		{"-role single -shard-index 1", "-role single does not read -shard-index"},
		{"-stream 0.2 -data /d", "-stream is not supported with -data"},
		{"-retain bogus", "-retain must be"},
		{"-role bogus", "-role must be"},

		{"-role shard -rpc :9101 -addr :8091 -shard-index 0 -shard-count 2 -data /d", ""},
		{"-role shard -shards 2", "-role shard does not read -shards: a shard process serves exactly one shard"},
		{"-role shard -primary a:1", "-role shard does not read -primary"},
		{"-role shard -shard-index 2 -shard-count 2", "-shard-index 2 is out of range for -shard-count 2"},
		{"-role shard -shard-index -1", "-shard-index must be >= 0"},
		{"-role shard -shard-count 0", "out of range for -shard-count 0"},

		{"-role coordinator -addr :8080 -peers a:1,b:2 -standbys 0=c:3", ""},
		{"-role coordinator", "-role coordinator requires -peers"},
		{"-role coordinator -peers a:1 -data /d", "-role coordinator does not read -data: a coordinator holds no data"},
		{"-role coordinator -peers a:1 -shards 4", "-role coordinator does not read -shards"},

		{"-role standby -rpc :9201 -primary a:1 -shard-index 0 -data /d", ""},
		{"-role standby -data /d", "-role standby requires -primary"},
		{"-role standby -primary a:1", "-role standby requires -data"},
		{"-role standby -primary a:1 -data /d -addr :8080", "-role standby does not read -addr"},
		{"-role standby -primary a:1 -data /d -shard-count 2", "-role standby does not read -shard-count"},
		{"-role standby -primary a:1 -data /d -shard-index -3", "-shard-index must be >= 0"},
	} {
		_, err := parseFlags(strings.Fields(tc.args))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("janusd %s: refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("janusd %s: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// localArgs boots a small, fast local engine set on an ephemeral port.
const localArgs = "-addr 127.0.0.1:0 -rows 3000 -leaves 16 -sample-rate 0.05 -catchup-rate 1 -checkpoint-interval 0 "

// daemon is one janusd booted through the one path — parseFlags, listen,
// run — on ephemeral ports, logging JSON into a buffer.
type daemon struct {
	http, rpc string // bound addresses, "" when not served
	cancel    context.CancelFunc
	done      chan error
	logMu     sync.Mutex
	logs      bytes.Buffer
}

func (d *daemon) Write(p []byte) (int, error) {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.logs.Write(p)
}

func startDaemon(t *testing.T, args string) *daemon {
	t.Helper()
	c, err := parseFlags(strings.Fields(args))
	if err != nil {
		t.Fatalf("janusd %s: %v", args, err)
	}
	d := &daemon{done: make(chan error, 1)}
	c.logger = slog.New(slog.NewJSONHandler(d, nil))
	httpLn, rpcLn, err := c.listen()
	if err != nil {
		t.Fatal(err)
	}
	if httpLn != nil {
		d.http = httpLn.Addr().String()
	}
	if rpcLn != nil {
		d.rpc = rpcLn.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	go func() { d.done <- run(ctx, c, httpLn, rpcLn) }()
	t.Cleanup(func() { d.stop(t) })
	return d
}

// stop cancels the daemon and waits for its orderly shutdown.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if d.cancel == nil {
		return
	}
	d.cancel()
	d.cancel = nil
	select {
	case err := <-d.done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// serving waits for the daemon's one structured boot line and returns it.
func (d *daemon) serving(t *testing.T) map[string]any {
	t.Helper()
	return d.waitLog(t, "serving")
}

// waitLog waits for the daemon's first log line with message msg and
// returns it.
func (d *daemon) waitLog(t *testing.T, msg string) map[string]any {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		d.logMu.Lock()
		lines := strings.Split(d.logs.String(), "\n")
		d.logMu.Unlock()
		for _, line := range lines {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == msg {
				return rec
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			t.Fatalf("daemon exited before logging %q: %v", msg, err)
		default:
		}
	}
	t.Fatalf("no %q line", msg)
	return nil
}

func postJSON(t *testing.T, addr, path, body string, out any) {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: %d %s", path, body, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decoding %s: %v", path, raw, err)
		}
	}
}

func httpCount(t *testing.T, addr string) int64 {
	t.Helper()
	var res server.QueryResultV2
	postJSON(t, addr, "/v2/query", `{"template":"trips","func":"COUNT"}`, &res)
	return int64(res.Estimate + 0.5)
}

func httpIngest(t *testing.T, addr string, tp janus.Tuple) {
	t.Helper()
	body, _ := json.Marshal(server.IngestRequest{Tuples: []server.WireTuple{{ID: tp.ID, Key: tp.Key, Vals: tp.Vals}}})
	postJSON(t, addr, "/v2/ingest", string(body), nil)
}

var countReq = janus.Request{Template: "trips", Query: janus.Query{Func: janus.FuncCount, AggIndex: -1}}

// rpcProbe issues one query and one ingest over an RPC listener — a client
// edge or a shard node — and returns the count it saw before the ingest.
func rpcProbe(t *testing.T, addr string, tp janus.Tuple) int64 {
	t.Helper()
	cl := client.Dial(addr)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ans, err := cl.Query(ctx, countReq)
	if err != nil {
		t.Fatalf("rpc query on %s: %v", addr, err)
	}
	if ack, err := cl.Ingest(ctx, []janus.Tuple{tp}, nil); err != nil || ack.Inserted != 1 {
		t.Fatalf("rpc ingest on %s: %+v, %v", addr, ack, err)
	}
	return int64(ans.Estimate + 0.5)
}

func metric(t *testing.T, addr, name string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return "" // a labeled series appears with its first observation
}

// freshTuples returns n tuples whose ids collide with nothing booted.
func freshTuples(t *testing.T, n int, startID int64) []janus.Tuple {
	t.Helper()
	tuples, err := workload.Generate(workload.NYCTaxi, n, startID, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

// TestRoleDirectoryTable boots every role × directory-state row through
// the one path, issues one query and one ingest over each edge the row
// serves, shuts down, and — for durable rows — reboots to check the
// shutdown checkpoint left an empty log tail and every acked row.
func TestRoleDirectoryTable(t *testing.T) {
	extra := freshTuples(t, 64, 1<<30)
	next := 0
	tuple := func() janus.Tuple { next++; return extra[next-1] }

	// bareLog prepares a directory holding only a segment log: a process
	// that crashed before its first checkpoint.
	bareLog := func(t *testing.T) string {
		dir := t.TempDir()
		st, err := janus.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.Broker().PublishInsertBatch(freshTuples(t, 500, 0))
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	for _, tc := range []struct {
		name       string
		args       string
		prepare    func(t *testing.T) string // the -data dir, when durable
		rows       int64
		shards     float64
		warm, cold float64
		rootFiles  bool // the directory holds the root form after boot
		reboot     bool // boot twice: the second boot is the row under test
	}{
		{name: "single ephemeral K=1", args: localArgs, rows: 3000, shards: 1, cold: 1},
		{name: "single ephemeral K=3 + client rpc", args: localArgs + "-shards 3 -rpc 127.0.0.1:0", rows: 3000, shards: 3, cold: 3},
		{name: "single fresh durable K=1", args: localArgs, prepare: (*testing.T).TempDir, rows: 3000, shards: 1, cold: 1, rootFiles: true},
		{name: "single fresh durable K=3", args: localArgs + "-shards 3", prepare: (*testing.T).TempDir, rows: 3000, shards: 3, cold: 3},
		{name: "single warm reboot", args: localArgs + "-shards 2 -rpc 127.0.0.1:0", prepare: (*testing.T).TempDir, rows: 3000, shards: 2, warm: 2, reboot: true},
		{name: "single cold from bare log", args: localArgs, prepare: bareLog, rows: 500, shards: 1, cold: 1, rootFiles: true},
		{name: "shard ephemeral slice", args: localArgs + "-role shard -rpc 127.0.0.1:0 -shard-index 1 -shard-count 2",
			rows: int64(len(janus.SplitByShard(freshTuples(t, 3000, 0), 2)[1])), shards: 1, cold: 1},
		{name: "shard durable", args: localArgs + "-role shard -rpc 127.0.0.1:0", prepare: (*testing.T).TempDir, rows: 3000, shards: 1, cold: 1, rootFiles: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			if tc.prepare != nil {
				args += " -data " + tc.prepare(t)
			}
			want := tc.rows
			if tc.reboot {
				d := startDaemon(t, args)
				httpIngest(t, d.http, tuple())
				want++
				d.stop(t)
			}
			d := startDaemon(t, args)
			line := d.serving(t)
			role := roleSingle
			if strings.Contains(args, "-role shard") {
				role = roleShard
			}
			for key, v := range map[string]any{"role": role, "shards": tc.shards, "warm": tc.warm, "cold": tc.cold, "tailRecords": 0.0,
				"rows": float64(want), "durable": tc.prepare != nil, "addr": d.http, "rpc": d.rpc} {
				if line[key] != v {
					t.Errorf("serving line %s = %v, want %v (line: %v)", key, line[key], v, line)
				}
			}
			if got := httpCount(t, d.http); got != want {
				t.Fatalf("HTTP COUNT = %d, want %d", got, want)
			}
			httpIngest(t, d.http, tuple())
			want++
			if d.rpc != "" {
				if got := rpcProbe(t, d.rpc, tuple()); got != want {
					t.Fatalf("RPC COUNT = %d, want %d", got, want)
				}
				want++
			}
			if got := httpCount(t, d.http); got != want {
				t.Fatalf("COUNT after ingest over every edge = %d, want %d", got, want)
			}
			d.stop(t)
			if tc.prepare == nil {
				return
			}
			dir := strings.Fields(args)[len(strings.Fields(args))-1]
			if _, err := os.Stat(filepath.Join(dir, "checkpoint.db")); (err == nil) != tc.rootFiles {
				t.Errorf("root checkpoint.db present = %v, want %v", err == nil, tc.rootFiles)
			}
			// The shutdown checkpoint covered everything: the next boot is
			// all warm, replays nothing, and serves every acked row.
			d = startDaemon(t, args)
			line = d.serving(t)
			if line["warm"] != tc.shards || line["cold"] != 0.0 || line["tailRecords"] != 0.0 || line["rows"] != float64(want) {
				t.Errorf("reboot serving line = %v, want %v warm shards, no tail, %d rows", line, tc.shards, want)
			}
			if got := metric(t, d.http, "janusd_recovery_tail_records"); got != "0" {
				t.Errorf("janusd_recovery_tail_records = %s after a clean shutdown", got)
			}
			if got := httpCount(t, d.http); got != want {
				t.Fatalf("COUNT after reboot = %d, want %d", got, want)
			}
		})
	}

	t.Run("shard refuses a multi-shard layout", func(t *testing.T) {
		dir := t.TempDir()
		d := startDaemon(t, localArgs+"-shards 3 -data "+dir)
		d.serving(t)
		d.stop(t)
		c, err := parseFlags(strings.Fields(localArgs + "-role shard -rpc 127.0.0.1:0 -data " + dir))
		if err != nil {
			t.Fatal(err)
		}
		c.logger = obs.NewLogger(io.Discard, obs.ParseLevel("info"), "text", "janusd-test")
		httpLn, rpcLn, err := c.listen()
		if err != nil {
			t.Fatal(err)
		}
		err = run(context.Background(), c, httpLn, rpcLn)
		if err == nil || !strings.Contains(err.Error(), "holds a 3-shard layout") {
			t.Fatalf("shard role over a 3-shard directory: %v, want a refusal", err)
		}
		if _, err := httpLn.Accept(); err == nil {
			t.Error("a refused boot left its HTTP listener open")
		}
	})

	t.Run("coordinator over two shards", func(t *testing.T) {
		shardArgs := localArgs + "-role shard -rpc 127.0.0.1:0 -shard-count 2 -shard-index "
		s0, s1 := startDaemon(t, shardArgs+"0"), startDaemon(t, shardArgs+"1")
		s0.serving(t)
		s1.serving(t)
		peers := "-role coordinator -addr 127.0.0.1:0 -peers " + s0.rpc + "," + s1.rpc
		want := int64(3000)
		for _, args := range []string{peers, peers + " -rpc 127.0.0.1:0"} {
			d := startDaemon(t, args)
			if line := d.serving(t); line["role"] != "coordinator" || line["shards"] != 2.0 || line["durable"] != false {
				t.Errorf("serving line = %v", line)
			}
			if got := httpCount(t, d.http); got != want {
				t.Fatalf("coordinator COUNT = %d, want %d", got, want)
			}
			httpIngest(t, d.http, tuple())
			want++
			if (d.rpc != "") != strings.Contains(args, "-rpc") {
				t.Fatalf("rpc listener %q for args %q", d.rpc, args)
			}
			if d.rpc != "" {
				if got := rpcProbe(t, d.rpc, tuple()); got != want {
					t.Fatalf("coordinator RPC COUNT = %d, want %d", got, want)
				}
				want++
			}
			d.stop(t)
		}
		// The shards' own HTTP surfaces saw the routed writes.
		if got := httpCount(t, s0.http) + httpCount(t, s1.http); got != want {
			t.Fatalf("shards hold %d rows, want %d", got, want)
		}
	})

	t.Run("standby promotes", func(t *testing.T) {
		primary := startDaemon(t, localArgs+"-role shard -rpc 127.0.0.1:0 -data "+t.TempDir())
		primary.serving(t)
		sb := startDaemon(t, "-role standby -rpc 127.0.0.1:0 -primary "+primary.rpc+
			" -leaves 16 -sample-rate 0.05 -catchup-rate 1 -replicate-interval 5ms -data "+filepath.Join(t.TempDir(), "replica"))
		if line := sb.serving(t); line["role"] != "standby" || line["addr"] != "" || line["rpc"] != sb.rpc {
			t.Errorf("serving line = %v", line)
		}
		httpIngest(t, primary.http, tuple())
		// Replication is asynchronous: wait for the standby's log to reach
		// the primary's before promoting.
		cl := transport.NewClient(sb.rpc)
		defer cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for {
			f, err := cl.Call(ctx, transport.MsgPing, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if st, err := transport.DecodeStatus(f.Body); err == nil && st.InsLen == 3001 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if _, err := cl.Call(ctx, transport.MsgPromote, "", nil); err != nil {
			t.Fatal(err)
		}
		if got := rpcProbe(t, sb.rpc, tuple()); got != 3001 {
			t.Fatalf("promoted standby COUNT = %d, want 3001", got)
		}
		// The replication task notices the promotion on its next tick;
		// stopping first could cancel it before it logs.
		sb.waitLog(t, "promoted to primary")
		sb.stop(t)
	})
}

// TestShardDaemonDurableHooks drives every hook a durable shard daemon
// wires at boot — the HTTP surface, the checkpointer, the compactor, the
// span observers, the shutdown checkpoint — over the engine and store it
// serves, then reopens the directory to check the shutdown left an empty
// log tail and exactly the booted and ingested rows.
func TestShardDaemonDurableHooks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	args := localArgs + "-role shard -rpc 127.0.0.1:0 -data " + dir
	d := startDaemon(t, args)
	d.serving(t)
	c, err := parseFlags(strings.Fields(args))
	if err != nil {
		t.Fatal(err)
	}
	booted, _, err := c.bootstrapRows(1)
	if err != nil {
		t.Fatal(err)
	}
	rows := append(booted[0], freshTuples(t, 700, 5_000_000)...)

	ingest := server.IngestRequest{}
	for _, tp := range rows[len(booted[0]):] {
		ingest.Tuples = append(ingest.Tuples, server.WireTuple{ID: tp.ID, Key: tp.Key, Vals: tp.Vals})
	}
	body, err := json.Marshal(ingest)
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, d.http, "/v2/ingest", string(body), nil)

	// The wired hooks, through the admin endpoints that invoke them.
	var ck janus.CheckpointInfo
	postJSON(t, d.http, "/v2/admin/checkpoint", "", &ck)
	if ck.ArchiveRows != int64(len(rows)) {
		t.Errorf("checkpoint snapshotted %d rows, want %d", ck.ArchiveRows, len(rows))
	}
	postJSON(t, d.http, "/v2/admin/compact", "", nil)
	resp, err := http.Get("http://" + d.http + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats janus.EngineStats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.ArchiveRows != int64(len(rows)) {
		t.Fatalf("/v2/stats reports %d rows (%v), want %d", stats.ArchiveRows, err, len(rows))
	}
	// An ingest through HTTP lands in the served engine and its spans
	// reach this daemon's metrics.
	before := metric(t, d.http, `janusd_engine_span_seconds_count{span="insert_batch"}`)
	extra := freshTuples(t, 1, 6_000_000)[0]
	httpIngest(t, d.http, extra)
	if after := metric(t, d.http, `janusd_engine_span_seconds_count{span="insert_batch"}`); after == before {
		t.Errorf("insert_batch span count stayed %s across an ingest: the served engine is not instrumented", before)
	}
	rows = append(rows, extra)
	d.stop(t) // shutdown checkpoint + compaction

	st, err := janus.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, rec, err := st.Recover(c.engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rec.TailInserts+rec.TailDeletes != 0 {
		t.Errorf("reopen replayed %d tail records after a clean shutdown", rec.TailInserts+rec.TailDeletes)
	}
	want := make(map[int64]bool, len(rows))
	for _, tp := range rows {
		want[tp.ID] = true
	}
	st.Broker().Archive().ForEach(func(tp janus.Tuple) bool {
		if !want[tp.ID] {
			t.Errorf("reopened archive holds row %d, which was never booted or ingested", tp.ID)
		}
		delete(want, tp.ID)
		return true
	})
	if len(want) != 0 {
		t.Errorf("reopened archive is missing %d acknowledged rows", len(want))
	}
	got, err := eng.StatsFor("trips")
	if err != nil {
		t.Fatal(err)
	}
	if got.Population != int64(len(rows)) {
		t.Errorf("reopened StatsFor population = %d, want %d", got.Population, len(rows))
	}
	ans, err := eng.Do(context.Background(), countReq)
	if err != nil || int(ans.Result.Estimate+0.5) != len(rows) {
		t.Errorf("reopened universe COUNT = %v (%v), want %d", ans.Result.Estimate, err, len(rows))
	}
}

func testBootConfig(dir string, shards int) daemonConfig {
	return daemonConfig{
		addr: ":0", dataset: workload.NYCTaxi, rows: 4000,
		engine: janus.Config{Seed: 42, LeafNodes: 16, SampleRate: 0.05, CatchUpRate: 1.0},
		retain: retainCompact, shards: shards, dataDir: dir, role: roleSingle,
		logger: obs.NewLogger(io.Discard, obs.ParseLevel("info"), "text", "janusd-test"),
	}
}

// TestBootDurableGroupReshardOnBoot drives the boot-time layout protocol
// end to end at a fixed seed: a fresh -shards 1 boot materializes the
// classic root layout, rebooting it with -shards 3 reshards the directory
// before serving (manifest committed, root logs retired), -shards 2
// shrinks it again, and a matching reboot leaves the epoch alone. Covering
// answers must agree across every layout.
func TestBootDurableGroupReshardOnBoot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	ctx := context.Background()
	sum := func(eng server.Engine) float64 {
		t.Helper()
		req := janus.Request{Template: "trips", Query: janus.Query{
			Func: janus.FuncSum, AggIndex: -1, Rect: janus.Universe(1)}}
		resp, err := eng.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result.Estimate
	}

	boot := func(shards int) (*durable, server.Engine, *server.Options) {
		t.Helper()
		opts := &server.Options{}
		p, err := composeSingle(ctx, testBootConfig(dir, shards), opts)
		if err != nil {
			t.Fatalf("boot -shards %d: %v", shards, err)
		}
		return p.durable, p.http, opts
	}

	// First boot: fresh directory, classic single-engine root layout.
	ds, eng, opts := boot(1)
	if _, err := os.Stat(filepath.Join(dir, "inserts.log")); err != nil {
		t.Fatalf("fresh -shards 1 boot did not materialize the root layout: %v", err)
	}
	extra, err := workload.Generate(workload.NYCTaxi, 500, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DeleteBatch([]int64{extra[0].ID, extra[1].ID}); err != nil {
		t.Fatal(err)
	}
	const wantRows = 4000 + 500 - 2
	want := sum(eng)
	ds.Close()

	close10 := func(got float64) bool {
		diff := got - want
		return diff < 1e-6*want && diff > -1e-6*want
	}

	// Reboot wider: reshard on boot 1 -> 3. The extra rows live only in
	// the log tail (no checkpoint covered them), so a lost acked write
	// would show up right here.
	ds, eng, opts = boot(3)
	group := eng.(*janus.ShardGroup)
	if group.NumShards() != 3 || group.LayoutEpoch() != 1 {
		t.Fatalf("serving %d shards at epoch %d, want 3 at 1", group.NumShards(), group.LayoutEpoch())
	}
	if got := group.Stats().ArchiveRows; got != wantRows {
		t.Fatalf("resharded layout holds %d rows, want %d", got, wantRows)
	}
	if got := sum(eng); !close10(got) {
		t.Fatalf("post-reshard sum %v, want %v", got, want)
	}
	ly, err := janus.RecoverShardLayout(dir)
	if err != nil || ly.Layout == nil || ly.Shards != 3 {
		t.Fatalf("on-disk layout after reshard = (%+v, %v), want a 3-shard manifest", ly, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "inserts.log")); !os.IsNotExist(err) {
		t.Fatalf("root logs survived the reshard: %v", err)
	}
	// The rebound closures must operate on the new stores.
	if _, err := opts.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after reshard-on-boot: %v", err)
	}
	if opts.Reshard == nil || opts.ReshardStatus == nil {
		t.Fatal("durable boot did not wire the admin reshard closures")
	}
	ds.Close()

	// Reboot narrower: 3 -> 2, manifest epoch advances.
	ds, eng, _ = boot(2)
	group = eng.(*janus.ShardGroup)
	if group.NumShards() != 2 || group.LayoutEpoch() != 2 {
		t.Fatalf("serving %d shards at epoch %d, want 2 at 2", group.NumShards(), group.LayoutEpoch())
	}
	if got := sum(eng); !close10(got) {
		t.Fatalf("post-shrink sum %v, want %v", got, want)
	}
	ds.Close()

	// Litter from a crashed reshard attempt is swept on the next boot.
	if err := os.MkdirAll(filepath.Join(dir, "shard-7.new"), 0o755); err != nil {
		t.Fatal(err)
	}
	ds, eng, _ = boot(2)
	group = eng.(*janus.ShardGroup)
	if group.NumShards() != 2 || group.LayoutEpoch() != 2 {
		t.Fatalf("matching reboot moved the layout: %d shards at epoch %d", group.NumShards(), group.LayoutEpoch())
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-7.new")); !os.IsNotExist(err) {
		t.Fatalf("shard-7.new litter survived boot: %v", err)
	}
	if got := sum(eng); !close10(got) {
		t.Fatalf("post-reboot sum %v, want %v", got, want)
	}
	ds.Close()
}

// TestDaemonFollowsStream boots each role that owns a local engine with
// -stream: the held-back rows must all arrive through the role's follow
// loop, leaving no follow lag and no recovered panic.
func TestDaemonFollowsStream(t *testing.T) {
	const args = "-addr 127.0.0.1:0 -rows 20000 -stream 0.2 -leaves 16 -sample-rate 0.05 -catchup-rate 1 -checkpoint-interval 0 "
	for _, tc := range []struct{ name, args string }{
		{"single", args},
		{"shard", args + "-role shard -rpc 127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := startDaemon(t, tc.args)
			d.serving(t)
			deadline := time.Now().Add(30 * time.Second)
			var stats janus.EngineStats
			for stats.ArchiveRows != 20000 {
				if time.Now().After(deadline) {
					t.Fatalf("archiveRows %d after 30s, want 20000", stats.ArchiveRows)
				}
				time.Sleep(10 * time.Millisecond)
				resp, err := http.Get("http://" + d.http + "/v2/stats")
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&stats)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
			// The watermark moves just after a batch lands in the archive.
			for lag := metric(t, d.http, "janusd_follow_lag_records"); lag != "0"; lag = metric(t, d.http, "janusd_follow_lag_records") {
				if time.Now().After(deadline) {
					t.Fatalf("janusd_follow_lag_records %q with every row archived, want 0", lag)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if got := metric(t, d.http, "janusd_follow_panics_total"); got != "0" {
				t.Errorf("janusd_follow_panics_total %q, want 0", got)
			}
		})
	}
}
