package janus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Online resharding: live shard split/merge with zero acknowledged-write
// loss. A ShardGroup serving K shards reshards to K′ by:
//
//  1. Barrier — under the group write gate, dual-writes switch on: from
//     this instant every write the serving layout acknowledges is also
//     mirrored into the target layout's brokers.
//  2. Copy — each source shard's live archive is snapshotted (the
//     archive's own read lock makes each per-shard snapshot a consistent
//     point-in-time view) and drained into the target brokers, re-routed
//     by ShardIndex(id, K′). Tombstones recorded by mirrored deletions
//     keep the copy from resurrecting rows deleted mid-flight, and a
//     liveness check keeps it from double-applying rows that arrived via
//     a dual-write.
//  3. Build — target engines are constructed over the (now fully loaded)
//     brokers and every template + schema of the source layout is built
//     on them. During one shard's build, dual-writes routed to that shard
//     wait; the other K′−1 shards keep absorbing mirrors.
//  4. Cutover — under the write gate again: an optional caller hook runs
//     (the durable form checkpoints the target stores and commits the
//     layout manifest here), the group follow watermark is carried onto
//     the new engines, and the layout pointer swaps. Readers never block:
//     queries load the layout pointer once and a cutover concurrent with
//     a query simply answers from the layout it started on.
//
// MinSyncOffset read-your-writes holds across the move because the wait
// parks on the group watermark, which survives the swap untouched, and
// every write acknowledged before the cutover is in the target layout by
// construction (dual-written or copied).

// ErrReshardInProgress reports a Reshard call while another reshard is
// still running; at most one layout change runs at a time. Match with
// errors.Is.
var ErrReshardInProgress = errors.New("janus: a reshard is already in progress")

// ReshardOptions configures one ShardGroup.Reshard call.
type ReshardOptions struct {
	// TargetShards is K′, the new layout's shard count (>= 1).
	TargetShards int

	// Config is the base engine configuration for the target shards; each
	// target shard j runs Config.WithShardSeed(j). Typically the same base
	// config the source shards were built with.
	Config Config

	// Brokers optionally supplies the target layout's brokers — one per
	// target shard, e.g. write-through brokers of freshly opened durable
	// Stores. Nil builds fresh in-memory brokers.
	Brokers []*Broker

	// BatchSize bounds one copy batch (default 4096 tuples).
	BatchSize int

	// OnCutover, when set, runs inside the cutover's write-gated window
	// after the target engines are complete and quiescent, immediately
	// before the layout swap. An error aborts the reshard with the old
	// layout still serving. The durable form checkpoints the target
	// stores and commits the layout manifest here — which is what makes
	// a crash recover to exactly one consistent layout.
	OnCutover func(target []*Engine) error
}

// ReshardProgress is a point-in-time snapshot of a reshard, readable while
// the copy runs (ShardGroup.ReshardProgress).
type ReshardProgress struct {
	// Active reports a reshard in flight.
	Active bool `json:"active"`
	// Phase is one of "copy", "build", "cutover", "done", "failed".
	Phase string `json:"phase"`
	// Epoch is the serving layout epoch (pre-cutover: the old layout's).
	Epoch int64 `json:"epoch"`
	// FromShards and ToShards are K and K′.
	FromShards int `json:"fromShards"`
	ToShards   int `json:"toShards"`
	// RowsCopied / RowsTotal track the archive drain. RowsTotal is the
	// source live-row count measured at the barrier; live traffic can
	// move RowsCopied past it.
	RowsCopied int64 `json:"rowsCopied"`
	RowsTotal  int64 `json:"rowsTotal"`
	// DualWrites counts records mirrored into the target by live traffic.
	DualWrites int64 `json:"dualWrites"`
	// CutoverPause is how long the final write-gated window held writers
	// (zero until the cutover completes).
	CutoverPause time.Duration `json:"cutoverPauseNanos"`
	// Error carries the failure reason when Phase == "failed".
	Error string `json:"error,omitempty"`
}

// ReshardReport summarizes a completed reshard.
type ReshardReport struct {
	FromShards   int
	ToShards     int
	Epoch        int64 // new layout epoch
	RowsCopied   int64
	DualWrites   int64
	CopyDuration time.Duration
	CutoverPause time.Duration
}

// ReshardProgress returns the latest reshard progress snapshot; ok is
// false when the group has never resharded.
func (g *ShardGroup) ReshardProgress() (ReshardProgress, bool) {
	p := g.progress.Load()
	if p == nil {
		return ReshardProgress{}, false
	}
	return *p, true
}

// Resharding reports whether a reshard is currently in flight.
func (g *ShardGroup) Resharding() bool { return g.dual.Load() != nil }

// reshardTarget is the in-flight target layout: per-target-shard slots
// that serialize the copy against live mirrored writes.
type reshardTarget struct {
	shards     []*targetShard
	dualWrites atomic.Int64
}

// targetShard is one target shard's ingestion slot. mu serializes every
// mutation of the slot — mirrored inserts and deletions, copy batches,
// and the engine build — which is what makes the tombstone/liveness
// checks and their corresponding applies atomic.
type targetShard struct {
	mu     sync.Mutex
	broker *Broker
	eng    *Engine // nil until the build phase hands the slot an engine
	// tomb records every id a mirrored deletion touched: the copy must
	// never (re-)apply a snapshot row for a tombstoned id — its deletion
	// was acknowledged, and any later live version of the id arrives via
	// a mirrored insert, never via the copy.
	tomb map[int64]struct{}
}

func newReshardTarget(brokers []*Broker) *reshardTarget {
	t := &reshardTarget{shards: make([]*targetShard, len(brokers))}
	for i, b := range brokers {
		t.shards[i] = &targetShard{broker: b, tomb: make(map[int64]struct{})}
	}
	return t
}

// mirrorInserts routes acknowledged live inserts into the target layout.
// Rows already live in the target are skipped (the copy got there first);
// admission failures are skipped with stream semantics — the serving
// layout acknowledged the write, so the mirror must make progress.
func (t *reshardTarget) mirrorInserts(tuples []Tuple) {
	parts := SplitByShard(tuples, len(t.shards))
	for j, sub := range parts {
		if len(sub) == 0 {
			continue
		}
		ts := t.shards[j]
		ts.mu.Lock()
		ts.applyInsertsLocked(sub)
		ts.mu.Unlock()
		t.dualWrites.Add(int64(len(sub)))
	}
}

// mirrorDeletes routes acknowledged deletions into the target layout and
// tombstones the ids so a copy batch still in flight cannot resurrect
// them.
func (t *reshardTarget) mirrorDeletes(ids []int64) {
	for j, sub := range splitIDsByShard(ids, len(t.shards)) {
		if len(sub) == 0 {
			continue
		}
		ts := t.shards[j]
		ts.mu.Lock()
		for _, id := range sub {
			ts.tomb[id] = struct{}{}
		}
		if ts.eng != nil {
			// Unknown ids are data on a delete stream, not an error.
			_, _ = ts.eng.DeleteBatch(sub)
		} else {
			ts.broker.PublishDeleteBatch(sub)
		}
		ts.mu.Unlock()
		t.dualWrites.Add(int64(len(sub)))
	}
}

// copyInserts applies one re-routed copy batch to target shard j,
// filtering tombstoned ids (deleted mid-copy) and ids already live in the
// target (dual-written before the copy reached them). Returns how many
// rows actually landed.
func (t *reshardTarget) copyInserts(j int, tuples []Tuple) int {
	ts := t.shards[j]
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.applyInsertsLocked(tuples)
}

// applyInsertsLocked filters and applies tuples to the slot; caller holds
// ts.mu. Pre-engine, rows go straight to the broker (write-through to a
// durable log when the broker belongs to a Store); post-build they go
// through the engine's stream-apply path so the synopses stay maintained.
func (ts *targetShard) applyInsertsLocked(tuples []Tuple) int {
	fresh := tuples[:0:0]
	for _, tp := range tuples {
		if _, dead := ts.tomb[tp.ID]; dead {
			continue
		}
		if _, live := ts.broker.Archive().Get(tp.ID); live {
			continue
		}
		fresh = append(fresh, tp)
	}
	if len(fresh) == 0 {
		return 0
	}
	if ts.eng != nil {
		applied, _ := ts.eng.applyStreamInserts(fresh)
		return applied
	}
	ts.broker.PublishInsertBatch(fresh)
	return len(fresh)
}

// engines returns the built target engines (valid after the build phase).
func (t *reshardTarget) engines() []*Engine {
	out := make([]*Engine, len(t.shards))
	for i, ts := range t.shards {
		out[i] = ts.eng
	}
	return out
}

// Reshard migrates the group to a TargetShards-shard layout while the
// current layout keeps serving, and cuts over atomically. See the file
// comment for the protocol. One reshard runs at a time; a second
// concurrent call fails fast.
//
// On success the group serves the new layout and the returned report
// describes the move. On error (including ctx cancellation mid-copy) the
// old layout is still serving and unchanged; target brokers passed in
// Options.Brokers may hold a partial copy the caller should discard.
func (g *ShardGroup) Reshard(ctx context.Context, opts ReshardOptions) (*ReshardReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	kNew := opts.TargetShards
	if kNew < 1 {
		return nil, fmt.Errorf("janus: reshard target of %d shards; need at least 1", kNew)
	}
	if opts.Brokers != nil && len(opts.Brokers) != kNew {
		return nil, fmt.Errorf("janus: reshard got %d target brokers for %d target shards", len(opts.Brokers), kNew)
	}
	if !g.reshardMu.TryLock() {
		return nil, ErrReshardInProgress
	}
	defer g.reshardMu.Unlock()

	oldLy := g.layout.Load()
	kOld := len(oldLy.shards)
	brokers := opts.Brokers
	if brokers == nil {
		brokers = make([]*Broker, kNew)
		for j := range brokers {
			brokers[j] = NewBroker()
		}
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 4096
	}

	prog := &ReshardProgress{
		Active: true, Phase: "copy", Epoch: oldLy.epoch,
		FromShards: kOld, ToShards: kNew,
	}
	g.progress.Store(prog)
	note := func(mut func(p *ReshardProgress)) {
		next := *g.progress.Load()
		mut(&next)
		g.progress.Store(&next)
	}
	tgt := newReshardTarget(brokers)
	fail := func(err error) (*ReshardReport, error) {
		// Drop the mirror under the gate so no writer is mid-mirror when
		// the target is abandoned.
		g.gate.Lock()
		g.dual.Store(nil)
		g.gate.Unlock()
		note(func(p *ReshardProgress) {
			p.Active, p.Phase, p.Error = false, "failed", err.Error()
			p.DualWrites = tgt.dualWrites.Load()
		})
		return nil, err
	}

	// Phase 1: barrier. Waiting out the gate's writers means every batch
	// acknowledged before this instant is fully in the source archives
	// (the copy will see it), and every one after it is mirrored.
	g.gate.Lock()
	g.dual.Store(tgt)
	g.gate.Unlock()

	var total int64
	for _, e := range oldLy.shards {
		total += e.Broker().Archive().Len()
	}
	note(func(p *ReshardProgress) { p.RowsTotal = total })

	// Phase 2: copy. Per source shard: one consistent archive snapshot,
	// re-routed and drained in bounded batches.
	copyStart := time.Now()
	csp := g.spans.start()
	var copied int64
	for _, e := range oldLy.shards {
		snapshot := e.snapshotArchive()
		for off := 0; off < len(snapshot); off += batch {
			if err := ctx.Err(); err != nil {
				return fail(fmt.Errorf("janus: reshard copy canceled: %w", err))
			}
			if h := reshardTestHook; h != nil {
				if err := h("copy"); err != nil {
					return fail(err)
				}
			}
			end := min(off+batch, len(snapshot))
			for j, sub := range SplitByShard(snapshot[off:end], kNew) {
				if len(sub) > 0 {
					copied += int64(tgt.copyInserts(j, sub))
				}
			}
			note(func(p *ReshardProgress) { p.RowsCopied = copied })
		}
	}
	g.spans.end(SpanReshardCopy, -1, csp)
	copyDur := time.Since(copyStart)

	// Phase 3: build target engines. Templates and schemas come from the
	// source layout (identical across source shards by construction).
	note(func(p *ReshardProgress) { p.Phase = "build"; p.DualWrites = tgt.dualWrites.Load() })
	bsp := g.spans.start()
	src := oldLy.shards[0]
	for j, ts := range tgt.shards {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("janus: reshard build canceled: %w", err))
		}
		// Holding the slot lock for the whole build keeps the archive
		// quiescent under AddTemplate's sampling; mirrors routed to this
		// shard wait, the other target shards keep absorbing theirs.
		ts.mu.Lock()
		eng, err := buildReshardTarget(opts.Config.WithShardSeed(j), ts.broker, src, j)
		if err == nil {
			ts.eng = eng
		}
		ts.mu.Unlock()
		if err != nil {
			return fail(err)
		}
	}
	g.spans.end(SpanReshardBuild, -1, bsp)

	// Phase 4: cutover. With the write gate held there are no writers in
	// flight, so source and target hold identical live sets; the caller
	// hook (durable checkpoint + manifest commit) runs on that quiescent
	// state, then the swap publishes the new layout.
	note(func(p *ReshardProgress) { p.Phase = "cutover"; p.DualWrites = tgt.dualWrites.Load() })
	target := tgt.engines()
	xsp := g.spans.start()
	g.gate.Lock()
	pauseStart := time.Now()
	if opts.OnCutover != nil {
		if err := opts.OnCutover(target); err != nil {
			g.dual.Store(nil)
			g.gate.Unlock()
			note(func(p *ReshardProgress) {
				p.Active, p.Phase, p.Error = false, "failed", err.Error()
			})
			return nil, err
		}
	}
	// Carry the group follow watermark onto the new engines so their next
	// checkpoints persist it and a restarted group resumes Follow where
	// this one stands (see NewShardGroup).
	followState := g.follow.offsets()
	for _, e := range target {
		e.follow.restore(followState)
	}
	newLy := g.newLayout(oldLy.epoch+1, target)
	g.layout.Store(newLy)
	g.dual.Store(nil)
	pause := time.Since(pauseStart)
	g.gate.Unlock()
	g.spans.end(SpanReshardCutover, -1, xsp)

	// Instrument the new layout exactly like the old one.
	if p := g.spans.obs.Load(); p != nil {
		instrumentShards(target, *p)
	}

	report := &ReshardReport{
		FromShards: kOld, ToShards: kNew, Epoch: newLy.epoch,
		RowsCopied: copied, DualWrites: tgt.dualWrites.Load(),
		CopyDuration: copyDur, CutoverPause: pause,
	}
	note(func(p *ReshardProgress) {
		p.Active, p.Phase, p.Epoch = false, "done", newLy.epoch
		p.RowsCopied, p.DualWrites, p.CutoverPause = copied, report.DualWrites, pause
	})
	return report, nil
}

// buildReshardTarget constructs target shard number shard's engine over its
// loaded broker b, building every template (and schema) of src — any
// engine of the source layout; registrations are identical across its
// shards — on it.
func buildReshardTarget(cfg Config, b *Broker, src *Engine, shard int) (*Engine, error) {
	names := src.Templates()
	if b.Archive().Len() == 0 && len(names) > 0 {
		// A synopsis cannot initialize from an empty archive; an empty
		// target shard would refuse every query and poison the layout.
		return nil, fmt.Errorf("janus: reshard target shard %d holds no rows; use fewer target shards or ingest more data first", shard)
	}
	eng := NewEngine(cfg, b)
	for _, name := range names {
		t, ok := src.Template(name)
		if !ok {
			return nil, fmt.Errorf("janus: %w %q vanished during reshard", ErrUnknownTemplate, name)
		}
		if err := eng.AddTemplate(t); err != nil {
			return nil, fmt.Errorf("janus: reshard target shard %d: %w", shard, err)
		}
		if sc, ok := src.Schema(name); ok {
			if err := eng.RegisterSchema(name, sc); err != nil {
				return nil, fmt.Errorf("janus: reshard target shard %d: %w", shard, err)
			}
		}
	}
	return eng, nil
}
