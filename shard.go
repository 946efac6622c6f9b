package janus

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ShardGroup is the scale-out form of the engine: K independent Engine
// shards, each owning a disjoint hash-partition of the data (by tuple id),
// presented behind the same surface as a single Engine.
//
// The scatter-gather itself — hash-partitioned parallel ingest, fanned-out
// queries merged into one estimate with a combined confidence interval,
// which shard's error reports — is the Router's, shared with the cluster
// coordinator; the group's shards are its local backends. What the group
// owns is what only an in-process shard set has: the write gate and the
// dual-write mirror that keep ingest live through a reshard, the follow
// watermark Request.MinSyncOffset waits on, template registration, and
// followed-stream consumption (Sync/Follow).
//
// Semantics versus a single Engine, worth knowing when scaling out:
//
//   - COUNT and SUM merged answers agree with a 1-shard engine up to
//     floating-point summation order; with catch-up complete they are
//     exactly the archive totals, shard count notwithstanding.
//   - A cross-shard InsertBatch is atomic per shard, not across shards: a
//     validation failure on one shard rejects that shard's sub-batch while
//     other shards' sub-batches land. Producers wanting all-or-nothing
//     batches should route batches to a single shard's id space or
//     validate upstream.
//   - AddTemplate/RegisterSchema fan out sequentially and do not roll back
//     on partial failure; register templates at boot, before serving.
//
// ShardGroup methods are safe for concurrent use; each shard keeps its own
// sharded locking underneath.
type ShardGroup struct {
	// layout is the serving layout: the shard engines and the layout
	// epoch, swapped atomically at a reshard cutover. Readers (queries,
	// stats) load it once and work against an immutable snapshot; they
	// never block on the write gate, which is what keeps reads flowing
	// through a cutover.
	layout atomic.Pointer[groupLayout]

	// gate orders writes against a reshard: every mutating path
	// (InsertBatch, DeleteBatch, stream application) holds the read half
	// for the duration of its batch, and the Resharder takes the write
	// half for the two instants that must exclude all writers — enabling
	// dual-writes and the final layout swap. Outside a reshard the only
	// cost is an uncontended RLock per batch.
	gate sync.RWMutex

	// dual, while a reshard is copying, is the target layout every
	// acknowledged write is mirrored into; nil otherwise.
	dual atomic.Pointer[reshardTarget]

	// reshardMu serializes reshards: at most one layout change at a time.
	reshardMu sync.Mutex

	// progress is the last reshard's progress snapshot (nil before the
	// first reshard).
	progress atomic.Pointer[ReshardProgress]

	// follow is the group-level followed-stream watermark (the group
	// routes a followed broker's records to shards itself, so
	// read-your-writes waits park here, not on any single shard).
	follow watermark

	// spans receives the group's own span emissions (the merge stage);
	// per-shard spans go through each shard's wrapped observer. It also
	// remembers the installed observer so a cutover can instrument the new
	// layout's engines exactly like the old one's.
	spans spanSink
}

// groupLayout is one immutable serving layout: a shard set, the router
// over it, and its epoch. A reshard builds a new one and swaps the
// pointer; nothing in a published layout is ever mutated.
type groupLayout struct {
	epoch  int64
	shards []*Engine
	router *Router
}

// newLayout builds a layout whose router scatters over shards as local
// backends, on the group's watermark and span observer.
func (g *ShardGroup) newLayout(epoch int64, shards []*Engine) *groupLayout {
	backends := make([]ShardBackend, len(shards))
	for i, e := range shards {
		backends[i] = e
	}
	return &groupLayout{epoch: epoch, shards: shards,
		router: &Router{backends: backends, follow: &g.follow, spans: &g.spans}}
}

func (g *ShardGroup) engines() []*Engine { return g.layout.Load().shards }

// LayoutEpoch reports the serving layout's epoch: 0 at construction,
// incremented by each completed reshard cutover.
func (g *ShardGroup) LayoutEpoch() int64 { return g.layout.Load().epoch }

// SetLayoutEpoch seeds the serving layout's epoch. Boot paths call it
// with the epoch of a recovered durable layout manifest so the in-memory
// epoch resumes where the directory stands and the next reshard advances
// it monotonically. Call before serving; it does not synchronize with a
// concurrent reshard.
func (g *ShardGroup) SetLayoutEpoch(epoch int64) {
	g.layout.Store(g.newLayout(epoch, g.engines()))
}

// NewShardGroup groups pre-built engines into one hash-sharded group. The
// engines must all serve the same template set (register templates through
// the group, or identically per shard before grouping — e.g. when each
// shard was recovered from its own durable Store).
func NewShardGroup(shards []*Engine) (*ShardGroup, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("janus: a shard group needs at least one engine")
	}
	for i, e := range shards {
		if e == nil {
			return nil, fmt.Errorf("janus: shard %d is nil", i)
		}
	}
	g := &ShardGroup{}
	g.layout.Store(g.newLayout(0, shards))
	// Resume the group watermark from the shards' recovered follow
	// offsets: the group's Sync advances every shard's watermark in step
	// (each checkpoint persists it), so a group rebuilt over checkpoint-
	// recovered engines is synced through the least-advanced shard and
	// read-your-writes holds across the restart. Fresh engines report
	// zeros, leaving a new group at the beginning of the stream.
	least := shards[0].FollowOffsets()
	for _, e := range shards[1:] {
		st := e.FollowOffsets()
		least.InsertOffset = min(least.InsertOffset, st.InsertOffset)
		least.DeleteOffset = min(least.DeleteOffset, st.DeleteOffset)
	}
	g.follow.restore(least)
	return g, nil
}

// ShardIndex returns the shard a tuple id hashes to in a group of the
// given size. The hash is a splitmix64 finalizer: sequential producer ids
// spread uniformly instead of striping, and the mapping is a pure function
// of (id, shards) — loaders can pre-partition bootstrap data with it and a
// restarted group routes exactly as its first life did.
func ShardIndex(id int64, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// SplitByShard hash-partitions tuples into per-shard batches, preserving
// each shard's relative order.
func SplitByShard(tuples []Tuple, shards int) [][]Tuple {
	out := make([][]Tuple, shards)
	if shards <= 1 {
		out[0] = tuples
		return out
	}
	for _, t := range tuples {
		i := ShardIndex(t.ID, shards)
		out[i] = append(out[i], t)
	}
	return out
}

// WithShardSeed derives a per-shard configuration: identical tuning, but a
// seed offset so shards draw independent samples (K shards with the same
// seed would correlate their reservoirs, understating merged variance).
func (c Config) WithShardSeed(shard int) Config {
	c.Seed += int64(shard) * 1_000_003
	return c
}

// NumShards returns the serving layout's size K.
func (g *ShardGroup) NumShards() int { return len(g.engines()) }

// Shard returns the i-th shard engine of the serving layout (for
// per-shard operations like durable checkpointing).
func (g *ShardGroup) Shard(i int) *Engine { return g.engines()[i] }

// AddTemplate builds the template's synopsis on every shard. Each shard
// must hold bootstrap data (a synopsis cannot initialize from an empty
// archive); hash partitioning spreads any non-trivial bootstrap across all
// shards. Registration is refused while a reshard is copying — the target
// layout would silently miss the template.
func (g *ShardGroup) AddTemplate(t Template) error {
	return g.register(fmt.Sprintf("template %q", t.Name), func(e *Engine) error { return e.AddTemplate(t) })
}

// RegisterSchema attaches a SQL schema to the template on every shard.
// Like AddTemplate, it is refused while a reshard is copying.
func (g *ShardGroup) RegisterSchema(template string, sc TableSchema) error {
	return g.register(fmt.Sprintf("schema for %q", template), func(e *Engine) error { return e.RegisterSchema(template, sc) })
}

// register applies one registration to every shard in order, without
// rollback (see the type comment).
func (g *ShardGroup) register(what string, fn func(*Engine) error) error {
	g.gate.RLock()
	defer g.gate.RUnlock()
	if g.dual.Load() != nil {
		return fmt.Errorf("janus: cannot register %s during an active reshard", what)
	}
	for i, e := range g.engines() {
		if err := fn(e); err != nil {
			return shardErr(i, err)
		}
	}
	return nil
}

// InsertBatch is Router.InsertBatch over the group's shards — K update
// locks run concurrently. While a reshard is copying, every sub-batch the
// serving layout acknowledged is also mirrored into the target layout
// (dual-write), so the copy phase never races acknowledged writes; a
// rejected sub-batch was never acked, so the target must not hold it either.
func (g *ShardGroup) InsertBatch(tuples []Tuple) error {
	g.gate.RLock()
	defer g.gate.RUnlock()
	var mirror func([]Tuple)
	if d := g.dual.Load(); d != nil {
		mirror = d.mirrorInserts
	}
	return g.layout.Load().router.InsertBatch(tuples, mirror)
}

// DeleteBatch is Router.DeleteBatch over the group's shards, mirrored into
// an active reshard's target layout.
func (g *ShardGroup) DeleteBatch(ids []int64) (int, error) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	n, err := g.layout.Load().router.DeleteBatch(ids)
	if d := g.dual.Load(); d != nil {
		// Deletions mirror unconditionally: an unknown id is data on a
		// delete stream, and the tombstone must land even when the serving
		// shard reported the id missing (the copy may not have reached the
		// target yet — see reshardTarget.mirrorDeletes).
		d.mirrorDeletes(ids)
	}
	return n, err
}

// Do answers one Request by scatter-gather: resolve once (SQL compiles one
// time, against shard 0's schemas — registration fans out identically) and
// hand the structured form to Router.Do, which waits out MinSyncOffset on
// the group's own follow watermark (see Sync) before the scatter.
func (g *ShardGroup) Do(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var began time.Time
	if req.Trace {
		began = time.Now()
	}
	// One layout snapshot answers the whole request: a cutover concurrent
	// with this query swaps the pointer for later requests, while this one
	// scatter-gathers over a consistent shard set.
	ly := g.layout.Load()
	// Validating and resolving before the router parks on the watermark
	// also fails fast: a malformed request or an unknown template can only
	// ever fail, and the watermark may never advance.
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	// Registrations are identical on every shard, so what shard 0 cannot
	// resolve no shard can — the lowest failing shard reports.
	s, q, onKeys, err := ly.shards[0].resolveRequest(req)
	if err != nil {
		return Response{}, shardErr(0, err)
	}
	return ly.router.Do(ctx, Request{
		Template: s.tmpl.Name, Query: q, OnKeys: onKeys,
		MinSyncOffset: req.MinSyncOffset, Trace: req.Trace,
	}, began)
}

// Template returns the declaration of the named template.
func (g *ShardGroup) Template(name string) (Template, bool) {
	return g.layout.Load().router.Template(name)
}

// Templates lists the registered template names.
func (g *ShardGroup) Templates() []string { return g.layout.Load().router.Templates() }

// StatsFor merges one template's per-shard synopsis stats.
func (g *ShardGroup) StatsFor(template string) (TemplateStats, error) {
	return g.layout.Load().router.StatsFor(template)
}

// Stats merges the per-shard engine stats into one group-wide snapshot;
// the synced insert offset reports the group watermark.
func (g *ShardGroup) Stats() EngineStats { return g.layout.Load().router.Stats() }

// mergeShardTemplateStats merges one template's per-shard synopsis stats
// into a group-wide view: sizes and populations add; catch-up progress
// reports the least caught-up shard.
func mergeShardTemplateStats(parts []TemplateStats) TemplateStats {
	var out TemplateStats
	for i, st := range parts {
		if i == 0 {
			out = st
			continue
		}
		out.add(st)
	}
	return out
}

// add folds another shard's stats for the same template into a.
func (a *TemplateStats) add(b TemplateStats) {
	a.SynopsisBytes += b.SynopsisBytes
	a.Leaves += b.Leaves
	a.SampleSize += b.SampleSize
	a.Population += b.Population
	a.CatchUpProgress = min(a.CatchUpProgress, b.CatchUpProgress)
}

// MergeShardStats merges per-shard engine stats into one group-wide
// snapshot: counters and rows add, per-template stats merge by name
// (sorted), the un-merged snapshots are kept in Shards (the per-shard
// breakdown is how stragglers and skewed hash placement are diagnosed),
// and SyncedInsertOffset conservatively reports the least-advanced shard
// (a router with a follow watermark overrides it).
func MergeShardStats(parts []EngineStats) EngineStats {
	var out EngineStats
	byName := make(map[string]*TemplateStats)
	var names []string
	for i, st := range parts {
		out.Shards = append(out.Shards, st)
		out.Reinits += st.Reinits
		out.TriggersFired += st.TriggersFired
		out.TriggersRejected += st.TriggersRejected
		for reason, tally := range st.TriggersByReason {
			if out.TriggersByReason == nil {
				out.TriggersByReason = make(map[string]TriggerTally)
			}
			sum := out.TriggersByReason[reason]
			sum.Fired += tally.Fired
			sum.Rejected += tally.Rejected
			out.TriggersByReason[reason] = sum
		}
		out.PartialRepartitions += st.PartialRepartitions
		out.ArchiveRows += st.ArchiveRows
		out.StreamRejected += st.StreamRejected
		if i == 0 || st.SyncedInsertOffset < out.SyncedInsertOffset {
			out.SyncedInsertOffset = st.SyncedInsertOffset
		}
		for _, ts := range st.Templates {
			agg, ok := byName[ts.Name]
			if !ok {
				copied := ts
				byName[ts.Name] = &copied
				names = append(names, ts.Name)
				continue
			}
			agg.add(ts)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		out.Templates = append(out.Templates, *byName[n])
	}
	return out
}

// --- followed-stream consumption ---------------------------------------------

// Sync drains the source broker's insert and delete topics from the
// offsets in state — the group form of Engine.Sync — hash-routing each
// polled batch across the shards and applying the per-shard sub-batches in
// parallel: stream consumption at the same K-way parallelism as direct
// ingest. Malformed records are skipped and counted in the owning shard's
// StreamRejected, mirroring Engine.Sync; the insert offset feeds the group
// watermark Request.MinSyncOffset waits on.
func (g *ShardGroup) Sync(ctx context.Context, source *Broker, state *SyncState) int {
	return drain(ctx, source, state, func(tuples []Tuple, next int64) int {
		// The gate is taken per polled batch, not for the whole drain: a
		// cutover can slot in between batches of a long catch-up without
		// waiting out the entire stream backlog.
		g.gate.RLock()
		defer g.gate.RUnlock()
		shards := g.engines()
		goods := make([]int, len(shards))
		fanOutParts(SplitByShard(tuples, len(shards)), func(i int, sub []Tuple) {
			var rejected int
			goods[i], rejected = shards[i].applyStreamInserts(sub)
			// Skips count on the owning shard, where the record was
			// rejected — the merged Stats() sums them group-wide.
			shards[i].noteStreamRejected(rejected)
		})
		if d := g.dual.Load(); d != nil {
			// The stream path mirrors the whole polled batch: the target
			// applies with the same skip-don't-fail admission, so a record
			// the serving layout rejected is rejected there too.
			d.mirrorInserts(tuples)
		}
		// Every shard is consistent through next — records at or below it
		// that hash to the shard have been applied — so advance each
		// shard's own follow watermark too: per-shard checkpoints persist
		// it, and a restarted group resumes Follow from the recovered
		// offsets instead of re-polling the whole topic (see NewShardGroup).
		for _, e := range shards {
			e.follow.note(next)
		}
		g.follow.note(next)
		applied := 0
		for _, n := range goods {
			applied += n
		}
		return applied
	}, func(ids []int64, next int64) {
		// Unknown ids are routine on a delete stream; they do not fail it.
		// DeleteBatch takes the write gate itself and mirrors into an
		// active reshard target.
		_, _ = g.DeleteBatch(ids)
		g.gate.RLock()
		defer g.gate.RUnlock()
		for _, e := range g.engines() {
			e.follow.noteDelete(next)
		}
		g.follow.noteDelete(next)
	})
}

// Follow tails the source broker until ctx is canceled — the group form of
// Engine.Follow: apply newly arrived records via Sync, and poll at the
// given interval when there is nothing to do.
func (g *ShardGroup) Follow(ctx context.Context, source *Broker, state *SyncState, interval time.Duration) int {
	return followLoop(ctx, source, state, interval, g.Sync)
}
