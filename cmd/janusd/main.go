// Command janusd serves a JanusAQP engine over HTTP — the network daemon
// form of the interactive DAQP service the paper motivates: dashboards
// issue approximate queries against /v2/query while producers stream
// batches through /v2/ingest. Every synopsis build — at boot, and at each
// re-initialization — runs catch-up to -catchup-rate before it serves.
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
// warm-boots from the latest checkpoint plus the log tail — no acknowledged
// write is lost and no re-initialization is paid. By default (-retain
// compact) the logs are rotated behind every checkpoint, so disk, heap and
// restart time stay proportional to the live data plus one checkpoint
// interval of tail; -retain all keeps the full archival log, and POST
// /v2/admin/compact compacts on demand either way.
//
// With -shards K the daemon serves a hash-sharded engine group: ingest
// splits by tuple id across K engines, queries scatter-gather with merged
// confidence intervals, and with -data each shard persists to DIR/shard-k.
// The layout is not fixed: POST /v2/admin/reshard live-migrates a running
// daemon to a new shard count, and booting with a -shards value that
// disagrees with the on-disk layout reshards the directory before serving
// (see README, "Online resharding").
//
// With -role the same shard boundary moves onto the network (see README,
// "Running a cluster"). A role is one row of the table in this file; a
// flag the role does not read is refused, not ignored:
//
//	role         requires         serves                               stores (-data)
//	single       —                HTTP over a local ShardGroup         root files or shard-k dirs;
//	                              [+ client RPC when -rpc is set]      reshardable
//	shard        —                node RPC + HTTP over one local       root files only; fixed
//	                              engine: slice -shard-index of        layout
//	                              -shard-count
//	coordinator  -peers           HTTP routed over -peers, failing     none
//	                              over to -standbys
//	                              [+ client RPC when -rpc is set]
//	standby      -primary, -data  node RPC; replicates -primary        a replica of the primary's
//	                              until promoted                       store
//
//	janusd -role shard -rpc :9101 -shard-index 0 -shard-count 2 -data /var/lib/janusd-s0
//	janusd -role shard -rpc :9102 -shard-index 1 -shard-count 2 -data /var/lib/janusd-s1
//	janusd -role standby -rpc :9201 -primary 127.0.0.1:9101 -shard-index 0 -data /var/lib/janusd-sb0
//	janusd -role coordinator -addr :8080 -peers 127.0.0.1:9101,127.0.0.1:9102 -standbys 0=127.0.0.1:9201
//
// The client RPC edge (README, "Binary client protocol") lets the
// janusaqp/client package — and anything speaking internal/transport
// frames — ingest and query without the HTTP/JSON codec; the same binary
// bodies are accepted on /v2/query and /v2/ingest under Content-Type:
// application/x-janus-binary. See /v2/templates for the registered schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	janus "janusaqp"
	"janusaqp/internal/cluster"
	"janusaqp/internal/metrics"
	"janusaqp/internal/obs"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// main binds the listeners before any boot work — a port conflict fails in
// milliseconds and leaves -data untouched — then runs until a signal.
func main() {
	ctx, cancel := context.WithCancelCause(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() { cancel(errors.New((<-sigc).String())) }()
	c, err := parseFlags(os.Args[1:])
	if err == nil {
		var httpLn, rpcLn net.Listener
		if httpLn, rpcLn, err = c.listen(); err == nil {
			err = run(ctx, c, httpLn, rpcLn)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "janusd:", err)
		os.Exit(1)
	}
}

// Process roles: where the shard boundary lives.
const (
	roleSingle      = "single"
	roleShard       = "shard"
	roleCoordinator = "coordinator"
	roleStandby     = "standby"
)

// Retention policies for the durable segment logs (see -retain).
const (
	retainCompact = "compact"
	retainAll     = "all"
)

// Flag groups for the role table; every role reads -role and -log-*.
const (
	engineFlags = "seed leaves sample-rate catchup-rate auto-repartition "
	localFlags  = engineFlags + "addr rpc dataset rows stream data checkpoint-interval retain slow-query admin "
)

// role is one row of the role table.
type role struct {
	requires []string          // flags that must carry a non-empty value
	reads    string            // space-separated flags the role reads; any other explicitly set flag is refused
	instead  map[string]string // for a refused flag worth a hint: what to do instead of setting it
	http     bool              // serves the HTTP surface on -addr
	rpc      bool              // always serves RPC on -rpc (else only when -rpc is explicit)
	oneStore bool              // serves exactly one root-form store; a shard-k layout is refused
	// compose boots and wires the role. It returns its parts even beside an
	// error: run closes what they hold either way.
	compose func(ctx context.Context, c daemonConfig, opts *server.Options) (parts, error)
}

var roles map[string]role

// init rather than a literal: the compose functions read the table.
func init() {
	roles = map[string]role{
		roleSingle: {reads: localFlags + "shards", http: true, compose: composeSingle},
		roleShard: {reads: localFlags + "shard-index shard-count", http: true, rpc: true, oneStore: true,
			instead: map[string]string{"shards": ": a shard process serves exactly one shard; -shard-count is the cluster width"},
			compose: composeShard},
		roleCoordinator: {requires: []string{"peers"}, reads: "addr rpc slow-query admin peers standbys", http: true,
			instead: map[string]string{"data": ": a coordinator holds no data; durability lives on the shards"},
			compose: composeCoordinator},
		roleStandby: {requires: []string{"primary", "data"}, reads: engineFlags + "rpc primary data shard-index replicate-interval",
			rpc: true, compose: composeStandby},
	}
}

func (r role) readsFlag(name string) bool {
	return name == "role" || strings.HasPrefix(name, "log-") || strings.Contains(" "+r.reads+" ", " "+name+" ")
}

type daemonConfig struct {
	addr, dataset   string
	rows            int
	engine          janus.Config // -seed -leaves -sample-rate -catchup-rate -auto-repartition
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
	peers          string
	standbys       string
	primary        string
	shardIndex     int
	shardCount     int
	replicateEvery time.Duration

	// explicit holds every flag set on the command line: the default -rpc
	// alone opens no port, and an unread flag is refused only when set.
	explicit map[string]string
	logger   *slog.Logger
}

// parseFlags parses the command line straight into a validated config.
func parseFlags(args []string) (daemonConfig, error) {
	c := daemonConfig{explicit: map[string]string{}}
	fs := c.flagSet()
	_ = fs.Parse(args) // ExitOnError
	fs.Visit(func(f *flag.Flag) { c.explicit[f.Name] = f.Value.String() })
	c.logger = obs.NewLogger(os.Stderr, obs.ParseLevel(c.logLevel), c.logFormat, "janusd")
	return c, c.validate()
}

func (c *daemonConfig) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("janusd", flag.ExitOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.dataset, "dataset", workload.NYCTaxi, "bootstrap dataset (taxi, intel, etf)")
	fs.IntVar(&c.rows, "rows", 200000, "bootstrap dataset size")
	fs.Int64Var(&c.engine.Seed, "seed", 42, "random seed")
	fs.IntVar(&c.engine.LeafNodes, "leaves", 128, "DPT leaf partitions k")
	fs.Float64Var(&c.engine.SampleRate, "sample-rate", 0.01, "pooled sample fraction")
	fs.Float64Var(&c.engine.CatchUpRate, "catchup-rate", 0.10, "catch-up goal as a fraction of the base population")
	fs.BoolVar(&c.engine.AutoRepartition, "auto-repartition", true, "enable trigger-driven re-partitioning")
	fs.Float64Var(&c.stream, "stream", 0, "fraction of rows held back and streamed through a followed broker after boot, in [0,1)")
	fs.StringVar(&c.dataDir, "data", "", "durable data directory: segment logs + checkpoints; restarts warm-boot from it")
	fs.DurationVar(&c.checkpointEvery, "checkpoint-interval", 30*time.Second, "background checkpoint cadence with -data (0 disables)")
	fs.StringVar(&c.retain, "retain", retainCompact,
		"durable log retention with -data: 'compact' rotates the segment logs behind every checkpoint (data dir stays O(live data + tail)); 'all' keeps the full Kafka-style archival history")
	fs.IntVar(&c.shards, "shards", 1, "engine shards: >1 hash-partitions ingest by tuple id across K engines and answers queries by scatter-gather")
	fs.StringVar(&c.logLevel, "log-level", "info", "structured log level: debug, info, warn, error (debug logs every request)")
	fs.StringVar(&c.logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.DurationVar(&c.slowQuery, "slow-query", 0, "log any query slower than this threshold at warn level (0 disables)")
	fs.BoolVar(&c.admin, "admin", false, "expose GET /v2/admin/debug and the net/http/pprof profiling handlers")
	fs.StringVar(&c.role, "role", roleSingle, "process role: single (default), shard (serve RPC over a local engine), coordinator (route HTTP over -peers), standby (replicate -primary)")
	fs.StringVar(&c.rpcAddr, "rpc", ":9101", "binary RPC listen address: always served by -role shard and -role standby; set explicitly on -role single or coordinator to also serve the binary client protocol (see README, \"Binary client protocol\")")
	fs.StringVar(&c.peers, "peers", "", "coordinator: comma-separated shard RPC addresses, in shard-index order")
	fs.StringVar(&c.standbys, "standbys", "", "coordinator: comma-separated index=addr standby RPC addresses, e.g. 0=10.0.0.5:9201")
	fs.StringVar(&c.primary, "primary", "", "standby: the primary shard's RPC address")
	fs.IntVar(&c.shardIndex, "shard-index", 0, "shard/standby: this shard's index in the cluster (fixes the sampling seed and the bootstrap partition)")
	fs.IntVar(&c.shardCount, "shard-count", 1, "shard: total shards in the cluster (selects this shard's slice of the bootstrap dataset)")
	fs.DurationVar(&c.replicateEvery, "replicate-interval", 20*time.Millisecond, "standby: log-tail poll interval when idle")
	return fs
}

// validate rejects bad values and, from the role table, a missing required
// flag or a set flag the role does not read — before any port or file.
func (c daemonConfig) validate() error {
	if c.stream < 0 || c.stream >= 1 {
		return fmt.Errorf("-stream must be in [0,1), got %g", c.stream)
	}
	if c.stream > 0 && c.dataDir != "" {
		return fmt.Errorf("-stream is not supported with -data (stream through /v2/ingest instead)")
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
	r, ok := roles[c.role]
	if !ok {
		return fmt.Errorf("-role must be single, shard, coordinator, or standby, got %q", c.role)
	}
	for _, name := range r.requires {
		if strings.TrimSpace(c.explicit[name]) == "" {
			return fmt.Errorf("-role %s requires -%s", c.role, name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(c.explicit)) {
		if !r.readsFlag(name) {
			return fmt.Errorf("-role %s does not read -%s%s", c.role, name, r.instead[name])
		}
	}
	if c.shardIndex < 0 {
		return fmt.Errorf("-shard-index must be >= 0, got %d", c.shardIndex)
	}
	if r.readsFlag("shard-count") && c.shardIndex >= c.shardCount {
		return fmt.Errorf("-shard-index %d is out of range for -shard-count %d", c.shardIndex, c.shardCount)
	}
	return nil
}

// listen binds HTTP on -addr and RPC on -rpc, as the role serves them.
func (c daemonConfig) listen() (httpLn, rpcLn net.Listener, err error) {
	r := roles[c.role]
	if r.http {
		httpLn, err = net.Listen("tcp", c.addr)
	}
	if _, explicit := c.explicit["rpc"]; err == nil && (r.rpc || explicit) {
		if rpcLn, err = net.Listen("tcp", c.rpcAddr); err != nil && httpLn != nil {
			httpLn.Close()
		}
	}
	return httpLn, rpcLn, err
}

// engineConfig seeds a cluster member like the same-index in-process shard;
// a standby MUST match its primary, whose synopses it rebuilds from the
// same decisions. A role that does not read -shard-index keeps it 0, for
// which WithShardSeed is the identity.
func (c daemonConfig) engineConfig() janus.Config { return c.engine.WithShardSeed(c.shardIndex) }

// parts is what a role's compose hands the one serve loop.
type parts struct {
	http    server.Engine     // what the HTTP surface (and an explicit -rpc client edge) serves; nil: no HTTP
	rpc     transport.Handler // the node RPC surface; nil: a client edge over http when -rpc is explicit
	durable *durable          // the live store set behind the admin hooks; nil: the role drives no stores
	task    func(ctx context.Context) error
	closers []func() // run in order once the servers have stopped
	// stream is the -stream producer's broker, nil without -stream; follow
	// tails a broker into what http serves.
	stream *janus.Broker
	follow func(ctx context.Context, source *janus.Broker, state *janus.SyncState, interval time.Duration) int
	// For the serving line:
	shards, warm, cold int
	tail, rows         int64
}

// run is the one serve loop: compose the role, serve the pre-bound
// listeners until ctx is canceled or a server fails, shut down in order.
func run(ctx context.Context, c daemonConfig, httpLn, rpcLn net.Listener) error {
	opts := server.Options{Logger: c.logger, SlowQuery: c.slowQuery, EnableAdmin: c.admin}
	ctx, stop := context.WithCancel(ctx)
	var task sync.WaitGroup
	p, err := roles[c.role].compose(ctx, c, &opts)
	// Deferred last-in first-out: servers stop, then background loops and
	// the task, and stores close last — no publish races a closed log.
	defer func() {
		stop()
		task.Wait()
		for _, fn := range p.closers {
			fn()
		}
	}()
	if err != nil {
		for _, ln := range []net.Listener{httpLn, rpcLn} {
			if ln != nil {
				ln.Close()
			}
		}
		return err
	}

	errc := make(chan error, 3) // one slot each: HTTP server, RPC server, task
	var httpSrv *http.Server
	if httpLn != nil {
		srv := server.New(p.http, opts)
		defer srv.Close()
		if p.durable != nil {
			p.durable.instrument(srv.SpanObserver())
		}
		if m, ok := p.http.(interface{ RegisterMetrics(*metrics.Registry) }); ok {
			m.RegisterMetrics(srv.Registry())
		}
		httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() { errc <- httpSrv.Serve(httpLn) }()
		if p.stream != nil {
			task.Add(1)
			go func() {
				defer task.Done()
				p.followStream(ctx, srv.Registry())
			}()
		}
	}
	if rpcLn != nil {
		if p.rpc == nil {
			// An explicit -rpc on an HTTP role: the binary client protocol
			// over the same engine, acks gated on the same write health
			// (nil on a coordinator — its shards gate their own acks).
			p.rpc = cluster.NewClientEdge(p.http, opts.WriteHealth)
		}
		rpcSrv := transport.NewServer(p.rpc)
		defer rpcSrv.Close()
		go func() {
			if err := rpcSrv.Serve(rpcLn); err != nil {
				errc <- fmt.Errorf("rpc server: %w", err)
			}
		}()
	}
	if p.task != nil {
		task.Add(1)
		go func() {
			defer task.Done()
			if err := p.task(ctx); err != nil {
				errc <- err
			}
		}()
	}
	addrOf := func(ln net.Listener) string {
		if ln == nil {
			return ""
		}
		return ln.Addr().String()
	}
	c.logger.Info("serving", "role", c.role, "addr", addrOf(httpLn), "rpc", addrOf(rpcLn),
		"shards", p.shards, "durable", c.dataDir != "", "warm", p.warm, "cold", p.cold,
		"tailRecords", p.tail, "rows", p.rows)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	c.logger.Info("shutting down", "signal", context.Cause(ctx).Error())
	if httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	// Checkpoint, compact, then (deferred) close: the next boot replays an
	// empty log tail and the data dir is compact at rest.
	if opts.Checkpoint != nil {
		if _, err := opts.Checkpoint(); err != nil {
			c.logger.Error("shutdown checkpoint failed", "error", err)
		} else if opts.CompactAfterCheckpoint {
			if _, err := opts.Compact(); err != nil {
				c.logger.Error("shutdown compaction failed", "error", err)
			}
		}
	}
	return nil
}
