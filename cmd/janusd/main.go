// Command janusd serves a JanusAQP engine over HTTP — the network daemon
// form of the interactive DAQP service the paper motivates: dashboards
// issue approximate queries against /v2/query while producers stream
// batches through /v2/ingest, and a background goroutine keeps folding
// catch-up samples (the paper's catch-up thread).
//
// It boots from a synthetic dataset so there is something to query
// immediately:
//
//	janusd -addr :8080 -dataset taxi -rows 200000
//
// then answers, e.g.:
//
//	curl -s localhost:8080/v2/query -d '{"sql":"SELECT SUM(tripDistance) FROM trips WHERE pickupTime BETWEEN 0 AND 43200"}'
//	curl -s localhost:8080/v2/query -d '{"requests":[{"template":"trips","func":"COUNT"},{"sql":"SELECT AVG(fareAmount) FROM trips"}]}'
//	curl -s localhost:8080/v2/ingest -d '{"tuples":[{"id":900001,"key":[1234],"vals":[3.1,12.5,1]}],"deleteIds":[17]}'
//	curl -s localhost:8080/v2/stats
//	curl -s localhost:8080/v2/templates
//	curl -s localhost:8080/metrics
//
// With -data DIR the daemon is durable: every ingested record is written
// through to an append-only segment log in DIR, a background checkpointer
// (and POST /v2/admin/checkpoint) snapshots the synopses, and a restart
// warm-boots by loading the latest checkpoint and replaying the log tail —
// no acknowledged write is lost and no re-initialization is paid:
//
//	janusd -addr :8080 -data /var/lib/janusd
//
// By default (-retain compact) the segment logs are rotated behind every
// checkpoint: the prefix a checkpoint's live-table snapshot made redundant
// is dropped, so disk, heap, and restart time stay proportional to the
// live data plus one checkpoint interval of tail rather than growing with
// total ingest history. -retain all keeps the full archival log; POST
// /v2/admin/compact triggers a checkpoint-anchored compaction on demand
// either way.
//
// With -shards K (K > 1) the daemon serves a hash-sharded engine group:
// ingest batches split by tuple id across K engines applied in parallel,
// and every query scatter-gathers across the shards with merged confidence
// intervals. Combined with -data, each shard persists to DIR/shard-k and
// recovers independently. The layout is not fixed: POST /v2/admin/reshard
// live-migrates a running daemon to a new shard count with dual-writes and
// an atomic cutover, and booting with a -shards value that disagrees with
// the on-disk layout reshards the directory before serving (see README,
// "Online resharding"):
//
//	janusd -addr :8080 -shards 4 -data /var/lib/janusd
//
// With -role the same shard boundary moves onto the network (see README,
// "Running a cluster"): shard processes serve the binary RPC protocol, a
// coordinator process serves the identical HTTP surface by hash-routing
// ingest and scatter-gathering queries over them, and warm standbys
// replicate a shard's store continuously so the coordinator can fail over
// without losing an acknowledged write:
//
//	janusd -role shard -rpc :9101 -shard-index 0 -shard-count 2 -data /var/lib/janusd-s0
//	janusd -role shard -rpc :9102 -shard-index 1 -shard-count 2 -data /var/lib/janusd-s1
//	janusd -role standby -rpc :9201 -primary 127.0.0.1:9101 -shard-index 0 -data /var/lib/janusd-sb0
//	janusd -role coordinator -addr :8080 -peers 127.0.0.1:9101,127.0.0.1:9102 -standbys 0=127.0.0.1:9201
//
// An explicit -rpc on a single or coordinator daemon additionally serves
// the binary client protocol (see README, "Binary client protocol"): the
// janusaqp/client package — and anything speaking internal/transport
// frames — can then ingest and query without the HTTP/JSON codec. The
// same binary bodies are also accepted on /v2/query and /v2/ingest under
// Content-Type: application/x-janus-binary:
//
//	janusd -addr :8080 -rpc :9101 -dataset taxi -rows 200000
//
// See /v2/templates for the registered schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	janus "janusaqp"
	"janusaqp/internal/cluster"
	"janusaqp/internal/obs"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataset := flag.String("dataset", workload.NYCTaxi, "bootstrap dataset (taxi, intel, etf)")
	rows := flag.Int("rows", 200000, "bootstrap dataset size")
	seed := flag.Int64("seed", 42, "random seed")
	leafNodes := flag.Int("leaves", 128, "DPT leaf partitions k")
	sampleRate := flag.Float64("sample-rate", 0.01, "pooled sample fraction")
	catchUpRate := flag.Float64("catchup-rate", 0.10, "catch-up goal as a fraction of the base population")
	catchUpEvery := flag.Duration("catchup-interval", 25*time.Millisecond, "background catch-up pump interval (0 disables)")
	autoRepartition := flag.Bool("auto-repartition", true, "enable trigger-driven re-partitioning")
	stream := flag.Float64("stream", 0, "fraction of rows held back and streamed through a followed broker after boot, in [0,1)")
	dataDir := flag.String("data", "", "durable data directory: segment logs + checkpoints; restarts warm-boot from it")
	checkpointEvery := flag.Duration("checkpoint-interval", 30*time.Second, "background checkpoint cadence with -data (0 disables)")
	retain := flag.String("retain", retainCompact,
		"durable log retention with -data: 'compact' rotates the segment logs behind every checkpoint (data dir stays O(live data + tail)); 'all' keeps the full Kafka-style archival history")
	shards := flag.Int("shards", 1, "engine shards: >1 hash-partitions ingest by tuple id across K engines and answers queries by scatter-gather")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error (debug logs every request)")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	slowQuery := flag.Duration("slow-query", 0, "log any query slower than this threshold at warn level (0 disables)")
	admin := flag.Bool("admin", false, "expose GET /v2/admin/debug and the net/http/pprof profiling handlers")
	role := flag.String("role", roleSingle, "process role: single (default), shard (serve RPC over a local engine), coordinator (route HTTP over -peers), standby (replicate -primary)")
	rpcAddr := flag.String("rpc", ":9101", "binary RPC listen address: always served by -role shard and -role standby; set explicitly on -role single or coordinator to also serve the binary client protocol (see README, \"Binary client protocol\")")
	peers := flag.String("peers", "", "coordinator: comma-separated shard RPC addresses, in shard-index order")
	standbys := flag.String("standbys", "", "coordinator: comma-separated index=addr standby RPC addresses, e.g. 0=10.0.0.5:9201")
	primary := flag.String("primary", "", "standby: the primary shard's RPC address")
	shardIndex := flag.Int("shard-index", 0, "shard/standby: this shard's index in the cluster (fixes the sampling seed and the bootstrap partition)")
	shardCount := flag.Int("shard-count", 1, "shard: total shards in the cluster (selects this shard's slice of the bootstrap dataset)")
	replicateEvery := flag.Duration("replicate-interval", 20*time.Millisecond, "standby: log-tail poll interval when idle")
	flag.Parse()

	// An explicitly set -rpc on a single or coordinator daemon opts into
	// the binary client protocol listener; the default value alone must
	// not open an extra port.
	rpcExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rpc" {
			rpcExplicit = true
		}
	})

	if err := run(daemonConfig{
		addr: *addr, dataset: *dataset, rows: *rows, seed: *seed,
		leafNodes: *leafNodes, sampleRate: *sampleRate, catchUpRate: *catchUpRate,
		catchUpEvery: *catchUpEvery, autoRepartition: *autoRepartition, stream: *stream,
		dataDir: *dataDir, checkpointEvery: *checkpointEvery, retain: *retain, shards: *shards,
		logLevel: *logLevel, logFormat: *logFormat, slowQuery: *slowQuery, admin: *admin,
		role: *role, rpcAddr: *rpcAddr, rpcExplicit: rpcExplicit, peers: *peers, standbys: *standbys,
		primary: *primary, shardIndex: *shardIndex, shardCount: *shardCount, replicateEvery: *replicateEvery,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "janusd:", err)
		os.Exit(1)
	}
}

// Process roles: where the shard boundary lives.
const (
	// roleSingle serves a local engine (or in-process shard group) over
	// HTTP — the original daemon.
	roleSingle = "single"
	// roleShard serves one shard's engine over the binary RPC protocol
	// (and the local HTTP surface, for per-shard observability).
	roleShard = "shard"
	// roleCoordinator serves the full HTTP surface by hash-routing ingest
	// and scatter-gathering queries over -peers, failing over to -standbys.
	roleCoordinator = "coordinator"
	// roleStandby continuously replicates -primary's store (checkpoint
	// bootstrap + log-tail streaming) and serves RPC so the coordinator
	// can promote it.
	roleStandby = "standby"
)

// Retention policies for the durable segment logs.
const (
	// retainCompact rotates the logs behind every checkpoint: disk, heap,
	// and restart cost stay proportional to the live data plus one
	// checkpoint interval of tail — the default, because a long-lived
	// daemon's history grows without bound.
	retainCompact = "compact"
	// retainAll keeps the full archival history on the logs (the broker's
	// Kafka-framing default before compaction existed). Compaction then
	// runs only on demand through POST /v2/admin/compact.
	retainAll = "all"
)

type daemonConfig struct {
	addr, dataset   string
	rows            int
	seed            int64
	leafNodes       int
	sampleRate      float64
	catchUpRate     float64
	catchUpEvery    time.Duration
	autoRepartition bool
	stream          float64
	dataDir         string
	checkpointEvery time.Duration
	retain          string
	shards          int
	logLevel        string
	logFormat       string
	slowQuery       time.Duration
	admin           bool

	role           string
	rpcAddr        string
	rpcExplicit    bool
	peers          string
	standbys       string
	primary        string
	shardIndex     int
	shardCount     int
	replicateEvery time.Duration

	// logger is built by run() from logLevel/logFormat; the boot helpers
	// log through it so boot events carry the same structured encoding as
	// the serving-path logs.
	logger *slog.Logger
}

func (c daemonConfig) engineConfig() janus.Config {
	cfg := janus.Config{
		LeafNodes:       c.leafNodes,
		SampleRate:      c.sampleRate,
		CatchUpRate:     c.catchUpRate,
		AutoRepartition: c.autoRepartition,
		Seed:            c.seed,
	}
	if c.role == roleShard || c.role == roleStandby {
		// A cluster shard draws from the same seed a same-index in-process
		// shard would, and a standby MUST match its primary: the replicated
		// synopses are rebuilt locally from the same sampling decisions.
		cfg = cfg.WithShardSeed(c.shardIndex)
	}
	return cfg
}

// bootstrapRows generates the synthetic bootstrap dataset — a cluster
// shard keeps only its hash slice, so K shard processes booted with the
// same -seed and -rows partition the dataset exactly as an in-process
// -shards K group would.
func (c daemonConfig) bootstrapRows() ([]janus.Tuple, error) {
	tuples, err := workload.Generate(c.dataset, c.rows, 0, c.seed)
	if err != nil {
		return nil, err
	}
	if c.role == roleShard && c.shardCount > 1 {
		return janus.SplitByShard(tuples, c.shardCount)[c.shardIndex], nil
	}
	return tuples, nil
}

func run(c daemonConfig) error {
	if c.stream < 0 || c.stream >= 1 {
		return fmt.Errorf("-stream must be in [0,1), got %g", c.stream)
	}
	if c.shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", c.shards)
	}
	if c.retain != retainCompact && c.retain != retainAll {
		return fmt.Errorf("-retain must be %q or %q, got %q", retainCompact, retainAll, c.retain)
	}
	if f := strings.ToLower(strings.TrimSpace(c.logFormat)); f != "text" && f != "json" {
		return fmt.Errorf("-log-format must be \"text\" or \"json\", got %q", c.logFormat)
	}
	if err := checkRoleFlags(c); err != nil {
		return err
	}
	c.logger = obs.NewLogger(os.Stderr, obs.ParseLevel(c.logLevel), c.logFormat, "janusd")
	switch c.role {
	case roleCoordinator:
		return runCoordinator(c)
	case roleStandby:
		return runStandby(c)
	}
	opts := server.Options{
		CatchUpInterval: c.catchUpEvery,
		Logger:          c.logger,
		SlowQuery:       c.slowQuery,
		EnableAdmin:     c.admin,
	}

	// A role-single durable daemon serves through a durableSet — the store
	// handles a live reshard swaps under it — while a shard-role daemon
	// keeps its single fixed store (the cluster coordinator reshards remote
	// layouts; a shard process never moves its own).
	var (
		eng    server.Engine
		ds     *durableSet
		stores []*janus.Store
		err    error
	)
	switch {
	case c.role == roleShard && c.dataDir != "":
		ly, lerr := checkDataLayout(c.dataDir)
		if lerr != nil {
			return lerr
		}
		if !ly.fresh && !ly.single {
			return fmt.Errorf("data dir %s holds a %d-shard layout; a -role shard process serves one engine over a single-engine layout (grow the cluster through the coordinator instead)", c.dataDir, ly.shards)
		}
		var st *janus.Store
		st, eng, err = bootDurable(c, &opts)
		if err == nil {
			stores = []*janus.Store{st}
		}
	case c.dataDir != "":
		ds, eng, err = bootDurableGroup(c, &opts)
	case c.shards > 1:
		eng, err = bootShardedEphemeral(c, &opts)
	default:
		eng, err = bootEphemeral(c, &opts)
	}
	if err != nil {
		return err
	}
	if ds != nil {
		defer ds.Close()
	}
	for _, st := range stores {
		defer st.Close()
	}

	srv := server.New(eng, opts)
	defer srv.Close()
	if ds != nil {
		// The set re-installs the observers itself whenever a reshard swaps
		// the stores; a fixed store wires its observer once.
		ds.instrument(srv.SpanObserver())
	}
	for i, st := range stores {
		shard, fn := i, srv.SpanObserver()
		st.SetSpanObserver(func(span string, _ int, d time.Duration) { fn(span, shard, d) })
	}

	rpcErrc := make(chan error, 1)
	if c.role == roleShard {
		// The shard additionally serves the binary RPC protocol over the
		// same engine and store; the HTTP surface stays up for per-shard
		// observability. An ephemeral shard (no -data) serves with a nil
		// store: queries and ingest work, but no standby can bootstrap
		// from it.
		var st *janus.Store
		if len(stores) == 1 {
			st = stores[0]
		}
		node := cluster.NewNode(eng.(*janus.Engine), st)
		ln, err := net.Listen("tcp", c.rpcAddr)
		if err != nil {
			return err
		}
		rpcSrv := transport.NewServer(node)
		defer rpcSrv.Close()
		go func() { rpcErrc <- rpcSrv.Serve(ln) }()
		c.logger.Info("serving rpc", "rpc", ln.Addr().String(), "shardIndex", c.shardIndex, "shardCount", c.shardCount)
	} else if c.rpcExplicit {
		// A single daemon with an explicit -rpc serves the binary client
		// protocol alongside HTTP: client frames skip the JSON codec and go
		// straight to the engine, with ingest acks gated on the same durable
		// write health the HTTP path checks.
		ln, err := net.Listen("tcp", c.rpcAddr)
		if err != nil {
			return err
		}
		rpcSrv := transport.NewServer(cluster.NewClientEdge(eng, opts.WriteHealth))
		defer rpcSrv.Close()
		go func() { rpcErrc <- rpcSrv.Serve(ln) }()
		c.logger.Info("serving client rpc", "rpc", ln.Addr().String())
	}

	httpSrv := &http.Server{
		Addr:              c.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case err := <-rpcErrc:
		return fmt.Errorf("rpc server: %w", err)
	case sig := <-stop:
		c.logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// Shutdown order: checkpoint, then compact, then (via the boot
		// paths' defers) Store.Close — the final checkpoint makes the next
		// boot's log tail empty, compaction shrinks the data dir at rest,
		// and closing last means no publish ever races a closed log.
		if opts.Checkpoint != nil {
			if _, err := opts.Checkpoint(); err != nil {
				c.logger.Error("shutdown checkpoint failed", "error", err)
			} else if opts.Compact != nil && opts.CompactAfterCheckpoint {
				if _, err := opts.Compact(); err != nil {
					c.logger.Error("shutdown compaction failed", "error", err)
				}
			}
		}
		return nil
	}
}

// checkRoleFlags validates the cluster-role flag combinations before any
// boot work happens.
func checkRoleFlags(c daemonConfig) error {
	switch c.role {
	case roleSingle:
		return nil
	case roleShard:
		if c.shards != 1 {
			return fmt.Errorf("-role shard serves exactly one shard per process; use -shard-count for the cluster width, not -shards")
		}
		if c.shardCount < 1 || c.shardIndex < 0 || c.shardIndex >= c.shardCount {
			return fmt.Errorf("-shard-index %d is out of range for -shard-count %d", c.shardIndex, c.shardCount)
		}
	case roleCoordinator:
		if strings.TrimSpace(c.peers) == "" {
			return fmt.Errorf("-role coordinator requires -peers")
		}
		if c.dataDir != "" {
			return fmt.Errorf("-role coordinator holds no data; drop -data (durability lives on the shards)")
		}
	case roleStandby:
		if strings.TrimSpace(c.primary) == "" {
			return fmt.Errorf("-role standby requires -primary")
		}
		if c.dataDir == "" {
			return fmt.Errorf("-role standby requires -data (the replica directory)")
		}
	default:
		return fmt.Errorf("-role must be %q, %q, %q, or %q, got %q",
			roleSingle, roleShard, roleCoordinator, roleStandby, c.role)
	}
	return nil
}

// parseStandbys parses the coordinator's -standbys value: comma-separated
// index=addr pairs, e.g. "0=10.0.0.5:9201,2=10.0.0.7:9201".
func parseStandbys(s string) (map[int]string, error) {
	out := map[int]string{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		idx, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-standbys entry %q is not index=addr", pair)
		}
		i, err := strconv.Atoi(strings.TrimSpace(idx))
		if err != nil {
			return nil, fmt.Errorf("-standbys entry %q: %w", pair, err)
		}
		if _, dup := out[i]; dup {
			return nil, fmt.Errorf("-standbys names shard %d twice", i)
		}
		out[i] = strings.TrimSpace(addr)
	}
	return out, nil
}

// runCoordinator serves the full HTTP surface over remote shards: ingest
// hash-routes by tuple id, queries scatter-gather with merged confidence
// intervals, and a shard whose primary stops responding fails over to its
// caught-up standby. The coordinator holds no data and writes no logs —
// durability and sampling live on the shards.
func runCoordinator(c daemonConfig) error {
	var peers []string
	for _, p := range strings.Split(c.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	standbys, err := parseStandbys(c.standbys)
	if err != nil {
		return err
	}
	coord, err := cluster.NewCoordinator(peers, standbys)
	if err != nil {
		return err
	}
	defer coord.Close()

	srv := server.New(coord, server.Options{
		Logger:      c.logger,
		SlowQuery:   c.slowQuery,
		EnableAdmin: c.admin,
	})
	defer srv.Close()
	coord.RegisterMetrics(srv.Registry())

	rpcErrc := make(chan error, 1)
	if c.rpcExplicit {
		// An explicit -rpc serves the binary client protocol directly over
		// the coordinator: client frames go straight to scatter-gather,
		// skipping the HTTP hop entirely. Shard-side durability gates the
		// acks (the coordinator itself holds no logs), so WriteHealth is nil.
		ln, err := net.Listen("tcp", c.rpcAddr)
		if err != nil {
			return err
		}
		rpcSrv := transport.NewServer(cluster.NewClientEdge(coord, nil))
		defer rpcSrv.Close()
		go func() { rpcErrc <- rpcSrv.Serve(ln) }()
		c.logger.Info("serving client rpc", "rpc", ln.Addr().String())
	}

	httpSrv := &http.Server{
		Addr:              c.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	c.logger.Info("serving", "boot", "coordinator", "addr", c.addr,
		"shards", len(peers), "standbys", len(standbys))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case err := <-rpcErrc:
		return fmt.Errorf("rpc server: %w", err)
	case sig := <-stop:
		c.logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// runStandby bootstraps a replica of -primary's store (streaming its
// checkpoint on first boot, reopening the local replica after a restart)
// and then follows the primary's log tail until the process stops or the
// coordinator promotes it — at which point the node starts serving
// queries and ingest as the shard's new primary over the same RPC
// listener.
func runStandby(c daemonConfig) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	client := transport.NewClient(c.primary)
	defer client.Close()
	sb, err := cluster.NewStandby(ctx, c.dataDir, client, c.engineConfig())
	if err != nil {
		return err
	}
	defer sb.Store().Close()
	node := cluster.NewStandbyNode(sb)

	ln, err := net.Listen("tcp", c.rpcAddr)
	if err != nil {
		return err
	}
	rpcSrv := transport.NewServer(node)
	defer rpcSrv.Close()
	rpcErrc := make(chan error, 1)
	go func() { rpcErrc <- rpcSrv.Serve(ln) }()

	ins, del := sb.Offsets()
	c.logger.Info("standby replicating", "rpc", ln.Addr().String(), "primary", c.primary,
		"shardIndex", c.shardIndex, "inserts", ins, "deletes", del)

	runErrc := make(chan error, 1)
	go func() { runErrc <- sb.Run(ctx, c.replicateEvery) }()
	select {
	case err := <-runErrc:
		if err != nil {
			return fmt.Errorf("replication stopped: %w", err)
		}
	case err := <-rpcErrc:
		return fmt.Errorf("rpc server: %w", err)
	}
	if ctx.Err() != nil {
		return nil
	}
	// Run returned nil without a shutdown signal: the coordinator promoted
	// this node. Keep serving as the shard's primary until stopped.
	c.logger.Info("promoted to primary", "rpc", ln.Addr().String(), "shardIndex", c.shardIndex)
	select {
	case <-ctx.Done():
		return nil
	case err := <-rpcErrc:
		return fmt.Errorf("rpc server: %w", err)
	}
}

// bootEphemeral is the original in-memory boot: generate the dataset,
// publish it, and build the synopses from scratch.
func bootEphemeral(c daemonConfig, opts *server.Options) (*janus.Engine, error) {
	tuples, err := c.bootstrapRows()
	if err != nil {
		return nil, err
	}
	initial := len(tuples) - int(c.stream*float64(len(tuples)))
	b := janus.NewBroker()
	for _, t := range tuples[:initial] {
		b.PublishInsert(t)
	}
	eng, err := buildEngine(c, b)
	if err != nil {
		return nil, err
	}
	startStream(c, opts, tuples[initial:])
	c.logger.Info("serving", "boot", "ephemeral", "rows", initial, "dataset", c.dataset,
		"addr", c.addr, "streamingIn", len(tuples)-initial)
	return eng, nil
}

// rootBoot is an opened-and-recovered legacy single-engine root layout.
type rootBoot struct {
	st     *janus.Store
	eng    *janus.Engine
	cold   bool // no checkpoint existed: the caller owes the initial one
	tail   int64
	follow janus.SyncState
}

// openDurableRoot opens the single-engine root layout at the data dir and
// either warm-restarts it from its checkpoint + log tail, or cold-boots
// (from the bare log after a crash before the first checkpoint, or from
// the generated dataset on first run). The caller wires checkpointing and,
// on a cold boot, writes the initial checkpoint.
func openDurableRoot(c daemonConfig) (rootBoot, error) {
	st, err := janus.OpenStore(c.dataDir)
	if err != nil {
		return rootBoot{}, err
	}
	start := time.Now()
	eng, rec, err := st.Recover(c.engineConfig())
	switch {
	case err == nil:
		c.logger.Info("warm restart", "dataDir", c.dataDir, "seconds", time.Since(start).Seconds(),
			"templates", rec.Templates, "rows", st.Broker().Archive().Len(),
			"tailInserts", rec.TailInserts, "tailDeletes", rec.TailDeletes, "addr", c.addr)
		return rootBoot{st: st, eng: eng, tail: int64(rec.TailInserts + rec.TailDeletes), follow: rec.Follow}, nil
	case errors.Is(err, janus.ErrNoCheckpoint):
		eng, err = coldBootDurable(c, st)
		if err != nil {
			st.Close()
			return rootBoot{}, err
		}
		return rootBoot{st: st, eng: eng, cold: true}, nil
	default:
		st.Close()
		return rootBoot{}, err
	}
}

// bootDurable opens the data directory as a fixed single-engine layout —
// the shard-role boot path (a shard process never reshards itself; the
// cluster coordinator moves layouts across nodes).
func bootDurable(c daemonConfig, opts *server.Options) (*janus.Store, *janus.Engine, error) {
	// Reject incompatible flags before OpenStore creates log files: an
	// aborted boot must leave no half-initialized data directory behind.
	if c.stream > 0 {
		return nil, nil, fmt.Errorf("-stream is not supported with -data (stream through /v2/ingest instead)")
	}
	rb, err := openDurableRoot(c)
	if err != nil {
		return nil, nil, err
	}
	st, eng := rb.st, rb.eng
	opts.FollowState = rb.follow
	opts.RecoveryTailRecords = rb.tail
	opts.Checkpoint = func() (janus.CheckpointInfo, error) { return st.WriteCheckpoint(eng) }
	opts.Compact = st.Compact
	opts.CompactAfterCheckpoint = c.retain == retainCompact
	opts.WriteHealth = st.WriteErr
	if c.checkpointEvery > 0 {
		opts.CheckpointInterval = c.checkpointEvery
	}
	if rb.cold {
		if _, err := opts.Checkpoint(); err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	return st, eng, nil
}

// coldBootDurable builds the engine over the store's broker: from rows
// already on the log (a crash before the first checkpoint), or from the
// generated bootstrap dataset, written through to the log as it publishes.
func coldBootDurable(c daemonConfig, st *janus.Store) (*janus.Engine, error) {
	b := st.Broker()
	if b.Archive().Len() == 0 {
		tuples, err := c.bootstrapRows()
		if err != nil {
			return nil, err
		}
		b.PublishInsertBatch(tuples)
	}
	eng, err := buildEngine(c, b)
	if err != nil {
		return nil, err
	}
	c.logger.Info("cold boot", "dataDir", c.dataDir, "rows", b.Archive().Len(),
		"dataset", c.dataset, "addr", c.addr)
	return eng, nil
}

// bootstrapRegistrar is the slice of the engine surface bootstrap
// registration needs — satisfied by *janus.Engine and *janus.ShardGroup.
type bootstrapRegistrar interface {
	AddTemplate(janus.Template) error
	RegisterSchema(template string, sc janus.TableSchema) error
}

// registerBootstrap declares the bootstrap template and SQL schema on an
// engine (or every shard of a group) over already-populated archives.
func registerBootstrap(eng bootstrapRegistrar) error {
	if err := eng.AddTemplate(janus.Template{
		Name:          "trips",
		PredicateDims: []int{0},
		AggIndex:      0,
		Agg:           janus.Sum,
	}); err != nil {
		return err
	}
	return eng.RegisterSchema("trips", janus.TableSchema{
		Table:    "trips",
		PredCols: []string{"pickupTime"},
		AggCols:  []string{"tripDistance", "fareAmount", "passengerCount"},
	})
}

// buildEngine constructs the engine and registers the bootstrap template
// and schema over an already-populated broker.
func buildEngine(c daemonConfig, b *janus.Broker) (*janus.Engine, error) {
	eng := janus.NewEngine(c.engineConfig(), b)
	if err := registerBootstrap(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

// parseShardDir parses a data-dir entry name as shard-K or shard-K.new.
func parseShardDir(name string) (k int, isNew, ok bool) {
	rest, found := strings.CutPrefix(name, "shard-")
	if !found {
		return 0, false, false
	}
	rest, isNew = strings.CutSuffix(rest, ".new")
	k, err := strconv.Atoi(rest)
	if err != nil || k < 0 {
		return 0, false, false
	}
	return k, isNew, true
}

// dataLayout is what checkDataLayout found in a data directory.
type dataLayout struct {
	// fresh: the directory holds no data at all — a first boot.
	fresh bool
	// single: legacy single-engine root logs (no manifest, no shard dirs).
	single bool
	// shards is the on-disk layout width (1 for a single root layout, 0
	// when fresh).
	shards int
	// manifest is the committed layout manifest, nil until the directory
	// has resharded at least once.
	manifest *janus.ShardLayout
}

// shardDirNames renders a shard-index list as its directory names, e.g.
// "shard-0, shard-2".
func shardDirNames(ks []int) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = fmt.Sprintf("shard-%d", k)
	}
	return strings.Join(names, ", ")
}

// layoutMismatch builds the found-vs-expected error for a shard-dir set
// that doesn't form the expected contiguous shard-0..shard-(width-1)
// layout, enumerating every missing and extra directory.
func layoutMismatch(dir string, found []int, width int, expected string) error {
	have := make(map[int]bool, len(found))
	var extra []int
	for _, k := range found {
		have[k] = true
		if k >= width {
			extra = append(extra, k)
		}
	}
	var missing []int
	for k := 0; k < width; k++ {
		if !have[k] {
			missing = append(missing, k)
		}
	}
	var probs []string
	if len(missing) > 0 {
		probs = append(probs, "missing "+shardDirNames(missing))
	}
	if len(extra) > 0 {
		probs = append(probs, "extra "+shardDirNames(extra))
	}
	return fmt.Errorf("data dir %s: expected %s but found [%s] (%s)",
		dir, expected, shardDirNames(found), strings.Join(probs, "; "))
}

// checkDataLayout inspects an existing data directory and reports the
// shard layout it holds. Hash routing is a pure function of (id, K), so
// the boot path must know the on-disk K before opening any store: a
// -shards value that disagrees with it is served by resharding the
// directory on boot (see bootDurableGroup), never by appending new writes
// — and routing deletions — under the wrong K. Structural damage is
// refused with the full found-vs-expected layout enumerated: shard-k
// entries that are not directories, gaps or strays in the shard-dir
// sequence, single-engine logs mixed with shard directories, or a layout
// manifest the directories contradict. Call janus.RecoverShardLayout
// first; this check treats any remaining shard-k.new entry as the litter
// it is and ignores it.
func checkDataLayout(dir string) (dataLayout, error) {
	var ly dataLayout
	manifest, haveManifest, err := janus.ReadShardLayout(dir)
	if err != nil {
		return ly, err
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		ly.fresh = true
		return ly, nil
	}
	if err != nil {
		return ly, err
	}

	var found []int
	var notDirs []string
	rootLogs := false
	for _, e := range entries {
		k, isNew, ok := parseShardDir(e.Name())
		switch {
		case !ok:
			switch e.Name() {
			case "inserts.log", "deletes.log", "checkpoint.db":
				rootLogs = true
			}
		case isNew:
			// Mid-reshard litter RecoverShardLayout sweeps or finalizes.
			_ = k
		case !e.IsDir():
			notDirs = append(notDirs, e.Name())
		default:
			found = append(found, k)
		}
	}
	sort.Ints(found)
	if len(notDirs) > 0 {
		return ly, fmt.Errorf("data dir %s: %s: not a directory (a shard layout holds one shard-k directory per shard); shard directories found: [%s]",
			dir, strings.Join(notDirs, ", "), shardDirNames(found))
	}

	if haveManifest {
		ly.manifest, ly.shards = &manifest, manifest.Shards
		expected := fmt.Sprintf("the manifest's %d-shard layout (shard-0..shard-%d)", manifest.Shards, manifest.Shards-1)
		if rootLogs {
			return ly, fmt.Errorf("data dir %s: expected %s but single-engine root logs are present alongside [%s]",
				dir, expected, shardDirNames(found))
		}
		if len(found) != manifest.Shards || (len(found) > 0 && found[len(found)-1] != manifest.Shards-1) {
			return ly, layoutMismatch(dir, found, manifest.Shards, expected)
		}
		return ly, nil
	}
	switch {
	case rootLogs && len(found) > 0:
		return ly, fmt.Errorf("data dir %s holds both single-engine root logs and shard directories [%s]; move one layout aside",
			dir, shardDirNames(found))
	case rootLogs:
		ly.single, ly.shards = true, 1
	case len(found) > 0:
		width := found[len(found)-1] + 1
		if len(found) != width {
			return ly, layoutMismatch(dir, found, width,
				fmt.Sprintf("a contiguous %d-shard layout (shard-0..shard-%d)", width, width-1))
		}
		ly.shards = width
	default:
		ly.fresh = true
	}
	return ly, nil
}

// bootShardedEphemeral hash-partitions the bootstrap dataset across K
// fresh brokers and serves a ShardGroup over them.
func bootShardedEphemeral(c daemonConfig, opts *server.Options) (server.Engine, error) {
	tuples, err := workload.Generate(c.dataset, c.rows, 0, c.seed)
	if err != nil {
		return nil, err
	}
	initial := c.rows - int(c.stream*float64(c.rows))
	parts := janus.SplitByShard(tuples[:initial], c.shards)
	engines := make([]*janus.Engine, c.shards)
	for i := range engines {
		b := janus.NewBroker()
		b.PublishInsertBatch(parts[i])
		engines[i] = janus.NewEngine(c.engineConfig().WithShardSeed(i), b)
	}
	group, err := janus.NewShardGroup(engines)
	if err != nil {
		return nil, err
	}
	if err := registerBootstrap(group); err != nil {
		return nil, err
	}
	// An ephemeral group reshards fully in memory: fresh target brokers,
	// no stores to retire.
	opts.Reshard = func(ctx context.Context, targetShards int) (*janus.ReshardReport, error) {
		return group.Reshard(ctx, janus.ReshardOptions{TargetShards: targetShards, Config: c.engineConfig()})
	}
	opts.ReshardStatus = group.ReshardProgress
	startStream(c, opts, tuples[initial:])
	c.logger.Info("serving", "boot", "sharded-ephemeral", "rows", initial, "dataset", c.dataset,
		"addr", c.addr, "shards", c.shards, "streamingIn", c.rows-initial)
	return group, nil
}

// durableSet tracks a role-single durable daemon's live stores. A live
// reshard — POST /v2/admin/reshard, or reshard-on-boot when -shards
// disagrees with the on-disk layout — retires the old stores and opens a
// new set under the same root, so everything that touches a store
// (checkpoints, compactions, write-health checks, span observers, the
// shutdown close) reads the current snapshot instead of a slice captured
// at boot. Checkpoint, compact, and reshard are serialized by the
// server's checkpoint mutex; WriteHealth races the swap on the ingest
// path and loads the pointer atomically.
type durableSet struct {
	root   string
	cfg    janus.Config
	group  *janus.ShardGroup
	stores atomic.Pointer[[]*janus.Store]
	// observe fans every store's I/O spans into the server metrics with
	// the shard index stamped on; re-installed on each new store set.
	observe atomic.Pointer[func(span string, shard int, d time.Duration)]
}

func (ds *durableSet) current() []*janus.Store { return *ds.stores.Load() }

// instrument registers the span-observer sink and installs it on the
// current stores (and, via reshard, on every future set).
func (ds *durableSet) instrument(fn func(span string, shard int, d time.Duration)) {
	ds.observe.Store(&fn)
	ds.installObservers()
}

func (ds *durableSet) installObservers() {
	p := ds.observe.Load()
	if p == nil {
		return
	}
	fn := *p
	for i, st := range ds.current() {
		shard := i
		st.SetSpanObserver(func(span string, _ int, d time.Duration) { fn(span, shard, d) })
	}
}

func (ds *durableSet) Close() {
	for _, st := range ds.current() {
		st.Close()
	}
}

// checkpoint writes one snapshot per shard of the serving layout; offsets
// and bytes aggregate across the group (each shard's image is consistent
// with its own logs).
func (ds *durableSet) checkpoint() (janus.CheckpointInfo, error) {
	var total janus.CheckpointInfo
	for i, st := range ds.current() {
		info, err := st.WriteCheckpoint(ds.group.Shard(i))
		if err != nil {
			return janus.CheckpointInfo{}, fmt.Errorf("shard %d: %w", i, err)
		}
		total.Templates = info.Templates
		total.InsertOffset += info.InsertOffset
		total.DeleteOffset += info.DeleteOffset
		total.ArchiveRows += info.ArchiveRows
		total.Bytes += info.Bytes
	}
	return total, nil
}

// compact rotates each shard's store independently against its own latest
// checkpoint; the reclaim totals aggregate across the group.
func (ds *durableSet) compact() (janus.CompactInfo, error) {
	var total janus.CompactInfo
	for i, st := range ds.current() {
		info, err := st.Compact()
		if err != nil {
			return janus.CompactInfo{}, fmt.Errorf("shard %d: %w", i, err)
		}
		total.InsertsDropped += info.InsertsDropped
		total.DeletesDropped += info.DeletesDropped
		total.LogBytesBefore += info.LogBytesBefore
		total.LogBytesAfter += info.LogBytesAfter
	}
	return total, nil
}

func (ds *durableSet) writeHealth() error {
	for i, st := range ds.current() {
		if err := st.WriteErr(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// reshard live-migrates the durable layout to k shards and swaps the
// store set to the new stores. When the cutover has committed, the group
// serves the new layout even if the directory finalize then failed (the
// error says so, and a restart completes the move), so the swap happens
// whenever ReshardDurable hands back stores — with or without an error.
func (ds *durableSet) reshard(ctx context.Context, k int) (*janus.ReshardReport, error) {
	rep, stores, err := janus.ReshardDurable(ctx, ds.group, ds.root, ds.current(), janus.ReshardOptions{
		TargetShards: k,
		Config:       ds.cfg,
	})
	if stores != nil {
		ds.stores.Store(&stores)
		ds.installObservers()
	}
	return rep, err
}

// openShardDirs opens and recovers the K durable shard stores under
// DIR/shard-0..shard-(k-1): warm shards restore their checkpoint + log
// tail, cold shards (first boot, or a crash before their first
// checkpoint) rebuild from their slice of the bootstrap dataset or their
// bare log.
func openShardDirs(c daemonConfig, k int) (stores []*janus.Store, engines []*janus.Engine, needCkpt bool, tail int64, warm int, err error) {
	engines = make([]*janus.Engine, k)
	fail := func(ferr error) ([]*janus.Store, []*janus.Engine, bool, int64, int, error) {
		for _, st := range stores {
			st.Close()
		}
		return nil, nil, false, 0, 0, ferr
	}
	var bootstrap [][]janus.Tuple // generated once, on the first empty cold shard
	for i := 0; i < k; i++ {
		st, err := janus.OpenStore(janus.ShardDir(c.dataDir, i))
		if err != nil {
			return fail(err)
		}
		stores = append(stores, st)
		cfg := c.engineConfig().WithShardSeed(i)
		eng, rec, err := st.Recover(cfg)
		switch {
		case err == nil:
			warm++
			tail += int64(rec.TailInserts + rec.TailDeletes)
		case errors.Is(err, janus.ErrNoCheckpoint):
			needCkpt = true
			if st.Broker().Archive().Len() == 0 {
				if bootstrap == nil {
					tuples, gerr := workload.Generate(c.dataset, c.rows, 0, c.seed)
					if gerr != nil {
						return fail(gerr)
					}
					bootstrap = janus.SplitByShard(tuples, k)
				}
				st.Broker().PublishInsertBatch(bootstrap[i])
			}
			eng = janus.NewEngine(cfg, st.Broker())
			if rerr := registerBootstrap(eng); rerr != nil {
				return fail(rerr)
			}
		default:
			return fail(err)
		}
		engines[i] = eng
	}
	return stores, engines, needCkpt, tail, warm, nil
}

// bootDurableGroup boots every role-single durable form — the legacy
// single-engine root layout, a K-shard DIR/shard-k layout, and whatever
// layout a committed manifest names (a resharded directory keeps shard
// directories even at K=1) — behind one ShardGroup. It recovers the shard
// layout first (sweeping the litter of an uncommitted reshard, rolling a
// committed-but-unfinalized one forward), boots the layout the directory
// actually holds, and when -shards disagrees with it, reshards on boot:
// the old layout is drained live into the requested width and the
// directory finalized before the listeners open.
func bootDurableGroup(c daemonConfig, opts *server.Options) (*durableSet, server.Engine, error) {
	if c.stream > 0 {
		return nil, nil, fmt.Errorf("-stream is not supported with -data (stream through /v2/ingest instead)")
	}
	lrec, err := janus.RecoverShardLayout(c.dataDir)
	if err != nil {
		return nil, nil, err
	}
	if len(lrec.RemovedNew) > 0 || lrec.RolledForward {
		c.logger.Info("layout recovery", "dataDir", c.dataDir,
			"rolledForward", lrec.RolledForward, "removedNew", lrec.RemovedNew)
	}
	ly, err := checkDataLayout(c.dataDir)
	if err != nil {
		return nil, nil, err
	}

	// Boot the layout the directory holds; a fresh directory materializes
	// at the requested width directly (root files for -shards 1, matching
	// the original single-engine layout).
	bootK, rootForm := ly.shards, ly.single
	if ly.fresh {
		bootK, rootForm = c.shards, c.shards == 1
	}

	start := time.Now()
	var (
		stores   []*janus.Store
		engines  []*janus.Engine
		needCkpt bool
		tail     int64
		warm     int
	)
	if rootForm {
		rb, err := openDurableRoot(c)
		if err != nil {
			return nil, nil, err
		}
		stores, engines = []*janus.Store{rb.st}, []*janus.Engine{rb.eng}
		needCkpt, tail = rb.cold, rb.tail
		if !rb.cold {
			warm = 1
		}
	} else {
		stores, engines, needCkpt, tail, warm, err = openShardDirs(c, bootK)
		if err != nil {
			return nil, nil, err
		}
	}
	fail := func(err error) (*durableSet, server.Engine, error) {
		for _, st := range stores {
			st.Close()
		}
		return nil, nil, err
	}
	group, err := janus.NewShardGroup(engines)
	if err != nil {
		return fail(err)
	}
	if ly.manifest != nil {
		// The serving epoch resumes where the durable layout stands, so
		// the next reshard (on boot or through the admin endpoint) commits
		// manifest and in-memory layout at the same epoch.
		group.SetLayoutEpoch(ly.manifest.Epoch)
	}
	ds := &durableSet{root: c.dataDir, cfg: c.engineConfig(), group: group}
	ds.stores.Store(&stores)

	opts.Checkpoint = ds.checkpoint
	opts.Compact = ds.compact
	opts.CompactAfterCheckpoint = c.retain == retainCompact
	opts.WriteHealth = ds.writeHealth
	if c.checkpointEvery > 0 {
		opts.CheckpointInterval = c.checkpointEvery
	}
	opts.RecoveryTailRecords = tail
	opts.Reshard = ds.reshard
	opts.ReshardStatus = group.ReshardProgress
	if needCkpt {
		if _, err := opts.Checkpoint(); err != nil {
			return fail(err)
		}
	}
	c.logger.Info("durable boot", "shards", bootK, "dataDir", c.dataDir,
		"seconds", time.Since(start).Seconds(), "warm", warm, "cold", bootK-warm,
		"tailRecords", tail, "rows", group.Stats().ArchiveRows, "addr", c.addr)

	if bootK != c.shards {
		// -shards disagrees with the on-disk layout: reshard on boot. The
		// old layout serves the copy exactly as it would under live
		// traffic, and the swap + directory finalize complete before the
		// listeners open.
		c.logger.Info("resharding on boot", "dataDir", c.dataDir, "from", bootK, "to", c.shards)
		rep, err := ds.reshard(context.Background(), c.shards)
		if err != nil {
			ds.Close()
			return nil, nil, fmt.Errorf("resharding %s from %d to %d shards on boot: %w", c.dataDir, bootK, c.shards, err)
		}
		c.logger.Info("resharded on boot", "from", rep.FromShards, "to", rep.ToShards,
			"epoch", rep.Epoch, "rows", rep.RowsCopied, "seconds", rep.CopyDuration.Seconds())
	}
	return ds, group, nil
}

// startStream wires the -stream demo producer: held-back rows arrive on a
// separate broker the server follows, exercising the same path an
// embedder uses to tail an external stream.
func startStream(c daemonConfig, opts *server.Options, rest []janus.Tuple) {
	if len(rest) == 0 {
		return
	}
	source := janus.NewBroker()
	opts.Follow = source
	go func() {
		for _, t := range rest {
			source.PublishInsert(t)
			time.Sleep(200 * time.Microsecond)
		}
	}()
}
