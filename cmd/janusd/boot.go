package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	janus "janusaqp"
	"janusaqp/internal/cluster"
	"janusaqp/internal/metrics"
	"janusaqp/internal/server"
	"janusaqp/internal/transport"
	"janusaqp/internal/workload"
)

// local is one booted shard of a local layout.
type local struct {
	eng  *janus.Engine
	st   *janus.Store // nil without -data
	cold bool         // no checkpoint existed: the caller owes the initial one
	tail int64        // log-tail records a warm restart replayed
}

// bootShard is the one local boot. With a dir it opens the store there and
// warm-restarts from its checkpoint + log tail; with no dir, or no
// checkpoint yet, it cold-boots over the broker — from rows already on the
// log (a crash before the first checkpoint), else from rows(), this
// shard's slice of the bootstrap dataset.
func bootShard(cfg janus.Config, dir string, rows func() ([]janus.Tuple, error)) (l local, err error) {
	b := janus.NewBroker()
	if dir != "" {
		if l.st, err = janus.OpenStore(dir); err != nil {
			return l, err
		}
		defer func() {
			if err != nil {
				l.st.Close()
			}
		}()
		b = l.st.Broker()
		eng, rec, rerr := l.st.Recover(cfg)
		if rerr == nil {
			l.eng, l.tail = eng, int64(rec.TailInserts+rec.TailDeletes)
			return l, nil
		}
		if !errors.Is(rerr, janus.ErrNoCheckpoint) {
			return l, rerr
		}
	}
	l.cold = true
	if b.Archive().Len() == 0 {
		tuples, err := rows()
		if err != nil {
			return l, err
		}
		b.PublishInsertBatch(tuples)
	}
	l.eng = janus.NewEngine(cfg, b)
	return l, registerBootstrap(l.eng)
}

// registerBootstrap declares the bootstrap template and SQL schema on an
// engine over its already-populated archive.
func registerBootstrap(eng *janus.Engine) error {
	if err := eng.AddTemplate(janus.Template{
		Name:          "trips",
		PredicateDims: []int{0},
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

// bootstrapRows generates the synthetic bootstrap dataset split k ways,
// plus the -stream fraction held back. A cluster member keeps only its
// hash slice, so K shard processes booted with the same -seed and -rows
// partition the dataset exactly as an in-process -shards K group would.
func (c daemonConfig) bootstrapRows(k int) (slices [][]janus.Tuple, rest []janus.Tuple, err error) {
	tuples, err := workload.Generate(c.dataset, c.rows, 0, c.engine.Seed)
	if err != nil {
		return nil, nil, err
	}
	if c.shardCount > 1 { // only a role reading -shard-count can set it
		tuples = janus.SplitByShard(tuples, c.shardCount)[c.shardIndex]
	}
	initial := len(tuples) - int(c.stream*float64(len(tuples)))
	return janus.SplitByShard(tuples[:initial], k), tuples[initial:], nil
}

// bootLocal boots every local form — ephemeral, root files, DIR/shard-k
// directories, whatever a committed manifest names — as K bootShard calls,
// shard i seeded WithShardSeed(i). A durable directory's recovered layout
// decides K; only a fresh one materializes at -shards (root files for
// -shards 1). It fills the serving-line counts, the -stream broker and the
// role-independent options.
func bootLocal(c daemonConfig, opts *server.Options, p *parts) (engines []*janus.Engine, stores []*janus.Store, ly janus.LayoutRecovery, err error) {
	k, rootForm := c.shards, c.shards == 1
	if c.dataDir != "" {
		if ly, err = janus.RecoverShardLayout(c.dataDir); err != nil {
			return nil, nil, ly, err
		}
		if len(ly.RemovedNew) > 0 || ly.RolledForward {
			c.logger.Info("layout recovery", "dataDir", c.dataDir,
				"rolledForward", ly.RolledForward, "removedNew", ly.RemovedNew)
		}
		if !ly.Fresh {
			k, rootForm = ly.Shards, ly.RootForm
		}
		if roles[c.role].oneStore && !rootForm {
			return nil, nil, ly, fmt.Errorf("data dir %s holds a %d-shard layout; a -role %s process serves one engine over a single-engine layout (give each cluster member its own directory)", c.dataDir, k, c.role)
		}
	}
	var slices [][]janus.Tuple // the bootstrap rows, generated at most once
	var rest []janus.Tuple
	for i := 0; i < k; i++ {
		dir := c.dataDir
		if dir != "" && !rootForm {
			dir = janus.ShardDir(dir, i)
		}
		l, err := bootShard(c.engineConfig().WithShardSeed(i), dir, func() ([]janus.Tuple, error) {
			if slices == nil {
				var err error
				if slices, rest, err = c.bootstrapRows(k); err != nil {
					return nil, err
				}
			}
			return slices[i], nil
		})
		if err != nil {
			for _, st := range stores {
				if st != nil {
					st.Close()
				}
			}
			return nil, nil, ly, err
		}
		engines, stores = append(engines, l.eng), append(stores, l.st)
		p.tail += l.tail
		p.rows += l.eng.Broker().Archive().Len()
		if l.cold {
			p.cold++
		}
	}
	p.shards, p.warm = k, k-p.cold
	opts.RecoveryTailRecords = p.tail
	if len(rest) > 0 {
		// The -stream demo producer: held-back rows arrive on a broker the
		// role follows (parts.followStream), the path an embedder tails an
		// external stream by.
		source := janus.NewBroker()
		p.stream = source
		go func() {
			for _, t := range rest {
				source.PublishInsert(t)
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	return engines, stores, ly, nil
}

// followStream tails the -stream broker into the serving engine until ctx
// ends, exporting the follow lag and the recovered-panic count on reg.
func (p *parts) followStream(ctx context.Context, reg *metrics.Registry) {
	reg.GaugeFunc("janusd_follow_lag_records",
		"Records published on the followed broker's insert topic but not yet applied.",
		func() float64 { return float64(max(0, p.stream.Inserts.Len()-p.http.Stats().SyncedInsertOffset)) })
	panics := reg.Counter("janusd_follow_panics_total",
		"Panics recovered in the broker-follow loop (bad stream records).")
	var state janus.SyncState
	// Sync skips malformed records (EngineStats.StreamRejected), so a panic
	// here is a bug below the stream path; it must not take the daemon
	// down, so recover and resume from the advanced offsets.
	for ctx.Err() == nil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					panics.Inc()
				}
			}()
			p.follow(ctx, p.stream, &state, 0)
		}()
	}
}

// durable is the store-facing half of every durable role: the checkpoint,
// compaction, write-health, span-observer and shutdown-close hooks, over
// the role's current stores and the engine serving beside store i. A live
// reshard retires both under a running daemon, so nothing in this package
// keeps one across calls. The server's checkpoint mutex serializes
// checkpoint, compact and reshard; writeHealth races a swap on the ingest
// path, which the accessors' atomic loads make safe.
type durable struct {
	stores func() []*janus.Store
	engine func(i int) *janus.Engine
	// observe feeds every store's I/O spans into the server metrics;
	// re-installed on each new store set.
	observe atomic.Pointer[janus.SpanObserver]
}

// wireDurable makes ds the role's store set: hooks into opts, Close into
// the shutdown, and the initial checkpoint a cold boot owes.
func (p *parts) wireDurable(c daemonConfig, opts *server.Options, ds *durable) error {
	p.durable, p.closers = ds, []func(){ds.Close}
	opts.Checkpoint, opts.Compact, opts.WriteHealth = ds.checkpoint, ds.compact, ds.writeHealth
	opts.CompactAfterCheckpoint = c.retain == retainCompact
	opts.CheckpointInterval = c.checkpointEvery
	if p.cold == 0 {
		return nil
	}
	_, err := ds.checkpoint()
	return err
}

// instrument installs the span sink on the current stores; a swap
// re-installs it on the new set.
func (ds *durable) instrument(fn janus.SpanObserver) {
	ds.observe.Store(&fn)
	ds.installObservers()
}

func (ds *durable) installObservers() {
	if p := ds.observe.Load(); p != nil {
		for _, st := range ds.stores() {
			st.SetSpanObserver(*p)
		}
	}
}

func (ds *durable) Close() {
	for _, st := range ds.stores() {
		st.Close()
	}
}

// checkpoint writes one snapshot per shard (each consistent with its own
// logs); offsets and bytes aggregate.
func (ds *durable) checkpoint() (janus.CheckpointInfo, error) {
	var total janus.CheckpointInfo
	for i, st := range ds.stores() {
		info, err := st.WriteCheckpoint(ds.engine(i))
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

// compact rotates each store against its own latest checkpoint.
func (ds *durable) compact() (janus.CompactInfo, error) {
	var total janus.CompactInfo
	for i, st := range ds.stores() {
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

func (ds *durable) writeHealth() error {
	for i, st := range ds.stores() {
		if err := st.WriteErr(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// composeSingle serves a ShardGroup over the local shards. The admin
// endpoint reshards it live, and a durable directory whose layout
// disagrees with -shards is resharded before serving — drained exactly as
// under live traffic, finalized before the listeners accept.
func composeSingle(ctx context.Context, c daemonConfig, opts *server.Options) (p parts, err error) {
	engines, stores, ly, err := bootLocal(c, opts, &p)
	if err != nil {
		return p, err
	}
	group, err := janus.NewShardGroup(engines)
	if err != nil {
		return p, err
	}
	p.http, p.follow = group, group.Follow
	cfg := c.engineConfig()
	opts.ReshardStatus = group.ReshardProgress
	if c.dataDir == "" {
		// An ephemeral group reshards fully in memory: fresh target
		// brokers, no stores to retire.
		opts.Reshard = func(ctx context.Context, k int) (*janus.ReshardReport, error) {
			return group.Reshard(ctx, janus.ReshardOptions{TargetShards: k, Config: cfg})
		}
		return p, nil
	}
	if ly.Layout != nil {
		// The serving epoch resumes where the durable layout stands, so the
		// next reshard commits manifest and in-memory layout at one epoch.
		group.SetLayoutEpoch(ly.Layout.Epoch)
	}
	var current atomic.Pointer[[]*janus.Store]
	current.Store(&stores)
	ds := &durable{stores: func() []*janus.Store { return *current.Load() }, engine: group.Shard}
	// Once the cutover commits, the group serves the new layout even if the
	// directory finalize then fails (a restart completes it), so the swap
	// happens whenever ReshardDurable hands back stores, error or not.
	opts.Reshard = func(ctx context.Context, k int) (*janus.ReshardReport, error) {
		rep, next, err := janus.ReshardDurable(ctx, group, c.dataDir, *current.Load(),
			janus.ReshardOptions{TargetShards: k, Config: cfg})
		if next != nil {
			current.Store(&next)
			ds.installObservers()
		}
		return rep, err
	}
	if err := p.wireDurable(c, opts, ds); err != nil || len(engines) == c.shards {
		return p, err
	}
	c.logger.Info("resharding on boot", "dataDir", c.dataDir, "from", len(engines), "to", c.shards)
	rep, err := opts.Reshard(ctx, c.shards)
	if err != nil {
		return p, fmt.Errorf("resharding %s from %d to %d shards on boot: %w", c.dataDir, len(engines), c.shards, err)
	}
	c.logger.Info("resharded on boot", "from", rep.FromShards, "to", rep.ToShards,
		"epoch", rep.Epoch, "rows", rep.RowsCopied, "seconds", rep.CopyDuration.Seconds())
	p.shards = c.shards
	return p, nil
}

// composeShard serves local engine 0 and its store behind a cluster.Node
// on RPC, plus HTTP for per-shard observability. Its layout is fixed, so
// opts.Reshard stays nil. An ephemeral shard has a nil store: queries and
// ingest work, but no standby can bootstrap from it.
func composeShard(_ context.Context, c daemonConfig, opts *server.Options) (p parts, err error) {
	engines, stores, _, err := bootLocal(c, opts, &p)
	if err != nil {
		return p, err
	}
	eng := engines[0]
	p.http, p.rpc, p.follow = eng, cluster.NewNode(eng, stores[0]), eng.Follow
	if c.dataDir == "" {
		return p, nil
	}
	return p, p.wireDurable(c, opts, &durable{
		stores: func() []*janus.Store { return stores },
		engine: func(int) *janus.Engine { return eng },
	})
}

// composeCoordinator serves the full HTTP surface over remote shards:
// ingest hash-routes by tuple id, queries scatter-gather, and a shard
// whose primary stops responding fails over to its caught-up standby.
// Durability and sampling live on the shards.
func composeCoordinator(_ context.Context, c daemonConfig, _ *server.Options) (parts, error) {
	peers := commaList(c.peers)
	standbys, err := parseStandbys(c.standbys)
	if err != nil {
		return parts{}, err
	}
	coord, err := cluster.NewCoordinator(peers, standbys)
	if err != nil {
		return parts{}, err
	}
	return parts{http: coord, shards: len(peers), closers: []func(){coord.Close}}, nil
}

// commaList splits a comma-separated flag value, dropping blanks.
func commaList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}

// parseStandbys parses the coordinator's -standbys value: comma-separated
// index=addr pairs, e.g. "0=10.0.0.5:9201,2=10.0.0.7:9201".
func parseStandbys(s string) (map[int]string, error) {
	out := map[int]string{}
	for _, pair := range commaList(s) {
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

// composeStandby bootstraps a replica of -primary's store (its checkpoint
// on first boot, the local replica after a restart) and follows the
// primary's log tail as its background task until the process stops or the
// coordinator promotes it to serve as the shard's primary on the same RPC
// listener.
func composeStandby(ctx context.Context, c daemonConfig, _ *server.Options) (parts, error) {
	client := transport.NewClient(c.primary)
	sb, err := cluster.NewStandby(ctx, c.dataDir, client, c.engineConfig())
	if err != nil {
		client.Close()
		return parts{}, err
	}
	return parts{
		rpc:    cluster.NewStandbyNode(sb),
		shards: 1,
		task: func(ctx context.Context) error {
			if err := sb.Run(ctx, c.replicateEvery); err != nil {
				return fmt.Errorf("replication stopped: %w", err)
			}
			if ctx.Err() == nil {
				// Not a shutdown: the coordinator promoted this node.
				c.logger.Info("promoted to primary", "shardIndex", c.shardIndex)
			}
			return nil
		},
		closers: []func(){func() { sb.Store().Close() }, func() { client.Close() }},
	}, nil
}
