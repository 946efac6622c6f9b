package janus

import (
	"context"
	"sync"
	"time"

	"janusaqp/internal/broker"
	"janusaqp/internal/core"
)

// PSoup-style stream consumption (Section 3.2): both data and queries are
// streams; an engine can be fed from an *external* broker's topics rather
// than through direct method calls, applying records strictly in arrival
// order so that query results reflect exactly the updates that preceded
// them.

// SyncState tracks how far an engine has consumed an external broker's
// topics. The zero value starts from the beginning of both logs.
type SyncState struct {
	InsertOffset int64
	DeleteOffset int64
}

// watermark is the followed-stream consumption watermark shared by Engine
// and ShardGroup: the highest insert- and delete-topic offsets applied so
// far, plus the wake channel read-your-writes waiters (Request.
// MinSyncOffset) park on until the insert side advances.
type watermark struct {
	mu     sync.Mutex
	insert int64
	delete int64
	wake   chan struct{}
}

// note advances the insert watermark and wakes MinSyncOffset waiters.
func (w *watermark) note(offset int64) {
	w.mu.Lock()
	if offset > w.insert {
		w.insert = offset
		if w.wake != nil {
			close(w.wake)
			w.wake = nil
		}
	}
	w.mu.Unlock()
}

// noteDelete advances the delete half. It has no waiters:
// read-your-writes is defined over insertions.
func (w *watermark) noteDelete(offset int64) {
	w.mu.Lock()
	if offset > w.delete {
		w.delete = offset
	}
	w.mu.Unlock()
}

// insertOffset reads the insert watermark.
func (w *watermark) insertOffset() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.insert
}

// offsets snapshots both halves.
func (w *watermark) offsets() SyncState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return SyncState{InsertOffset: w.insert, DeleteOffset: w.delete}
}

// restore sets both halves (checkpoint recovery).
func (w *watermark) restore(state SyncState) {
	w.mu.Lock()
	w.insert = state.InsertOffset
	w.delete = state.DeleteOffset
	w.mu.Unlock()
}

// wait blocks until the insert watermark reaches min or ctx ends. Callers
// should bound ctx: with no follow loop running the watermark never moves.
func (w *watermark) wait(ctx context.Context, min int64) error {
	for {
		w.mu.Lock()
		if w.insert >= min {
			w.mu.Unlock()
			return nil
		}
		if w.wake == nil {
			w.wake = make(chan struct{})
		}
		wake := w.wake
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		}
	}
}

// followLoop is the shared daemon-side consumption loop: apply newly
// arrived records via sync, and poll at the given interval when there is
// nothing to do.
func followLoop(ctx context.Context, interval time.Duration, sync func(context.Context) int) int {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	total := 0
	for ctx.Err() == nil {
		n := sync(ctx)
		total += n
		if n == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(interval):
			}
		}
	}
	return total
}

// Sync applies all records currently available on the source broker's
// insert and delete topics, in per-topic arrival order, starting at the
// offsets in state. It advances state and returns the number of records
// applied. Call it in a loop (optionally interleaved with queries) to
// follow a live stream.
//
// Each polled batch is validated and applied under one acquisition of the
// update lock — the same amortization as InsertBatch — and malformed
// records (schema mismatch, duplicate id) are skipped rather than panicking
// the consumer; skips are counted in EngineStats.StreamRejected. As the
// insert offset advances it feeds the read-your-writes watermark
// (SyncedInsertOffset) that Request.MinSyncOffset waits on.
//
// Ordering is per-topic only: each pass drains pending inserts before
// pending deletes, so cross-topic sequences on the same ID (delete(x)
// immediately followed by a re-insert of x) are not ordered. Producers
// must assign fresh IDs — the same contract Archive.Insert enforces.
func (e *Engine) Sync(source *Broker, state *SyncState) int {
	return e.SyncContext(context.Background(), source, state)
}

// SyncContext is Sync bounded by a context: it stops draining between
// batches once ctx is canceled, so a hot stream cannot stall shutdown for
// longer than one batch.
func (e *Engine) SyncContext(ctx context.Context, source *Broker, state *SyncState) int {
	applied := 0
	const batch = 4096
	for ctx.Err() == nil {
		recs, next := source.Inserts.Poll(state.InsertOffset, batch)
		if len(recs) == 0 {
			break
		}
		tuples := make([]Tuple, 0, len(recs))
		for _, r := range recs {
			tuples = append(tuples, r.Tuple)
		}
		good, rejected := e.applyStreamInserts(tuples)
		state.InsertOffset = next
		e.follow.note(next)
		applied += good
		e.noteStreamRejected(rejected)
	}
	for ctx.Err() == nil {
		recs, next := source.Deletes.Poll(state.DeleteOffset, batch)
		if len(recs) == 0 {
			break
		}
		ids := make([]int64, 0, len(recs))
		for _, r := range recs {
			ids = append(ids, r.Tuple.ID)
		}
		// Unknown ids are routine on a delete stream (the row may never
		// have reached this engine); they do not count as rejects.
		e.DeleteBatch(ids)
		state.DeleteOffset = next
		e.follow.noteDelete(next)
		applied += len(recs)
	}
	return applied
}

// noteStreamRejected counts stream records the admission rules skipped
// (EngineStats.StreamRejected). Both this engine's own Sync loop and a
// ShardGroup routing records to it report skips here.
func (e *Engine) noteStreamRejected(n int) {
	if n == 0 {
		return
	}
	e.statsMu.Lock()
	e.streamRejected += int64(n)
	e.statsMu.Unlock()
}

// applyStreamInserts ingests one polled batch, skipping records that fail
// validation instead of rejecting the batch: a stream consumer must make
// progress past a malformed record, where the request-path InsertBatch
// must stay atomic. Returns how many tuples were applied and skipped.
func (e *Engine) applyStreamInserts(tuples []Tuple) (applied, rejected int) {
	sp := e.spans.start()
	defer func() { e.spans.end(SpanStreamApply, 0, sp) }()
	e.upd.Lock()
	defer e.upd.Unlock()
	// One registry pass per polled batch, not per record — the same
	// amortization as InsertBatch, on the follow-loop hot path; the
	// admission rules themselves are shared with InsertBatch.
	arities := e.aritiesUpdLocked()
	good := make([]Tuple, 0, len(tuples))
	seen := make(map[int64]bool, len(tuples))
	for _, t := range tuples {
		if seen[t.ID] || e.admitUpdLocked(t, arities) != nil {
			rejected++
			continue
		}
		seen[t.ID] = true
		good = append(good, t)
	}
	if len(good) > 0 {
		e.applyInsertsUpdLocked(good)
	}
	return len(good), rejected
}

// replayLogTail applies the engine's own broker log — inserts from
// state.InsertOffset, deletes from state.DeleteOffset, merged in global
// publish order — onto the archive and every synopsis, without
// re-publishing anything: the records are already on the topics, having
// been recovered from the durable segment log. This is the last step of a
// warm restart: the checkpoint restored the synopses as of state, and the
// tail carries the acknowledged writes that landed between that checkpoint
// and the crash. Over a compacted store the replay starts at the log's
// base — the checkpoint offsets — never at zero, so its cost is bounded by
// the post-checkpoint tail, not by the total ingest history.
//
// Records that fail admission are skipped and counted exactly like the
// stream path (EngineStats.StreamRejected); deletes of ids the rebuilt
// archive does not hold are skipped silently, mirroring Sync. Triggers are
// not evaluated during replay — recovery reproduces state, it does not
// re-optimize; the next live batch re-arms them. state is advanced to the
// topic ends.
func (e *Engine) replayLogTail(state *SyncState) (inserts, deletes, rejected int) {
	e.upd.Lock()
	defer e.upd.Unlock()
	insEnd := e.broker.Inserts.Len()
	delEnd := e.broker.Deletes.Len()
	arities := e.aritiesUpdLocked()
	syns := e.snapshotSyns()
	archive := e.broker.Archive()
	e.broker.ReplayMerged(state.InsertOffset, insEnd, state.DeleteOffset, delEnd, func(r broker.Record) {
		switch r.Kind {
		case broker.KindInsert:
			if err := e.admitUpdLocked(r.Tuple, arities); err != nil {
				rejected++
				return
			}
			archive.Insert(r.Tuple)
			for _, s := range syns {
				s.apply(func(dpt *core.DPT) { dpt.Insert(r.Tuple) })
			}
			inserts++
		case broker.KindDelete:
			t, ok := archive.Get(r.Tuple.ID)
			if !ok {
				return
			}
			archive.Delete(t.ID)
			for _, s := range syns {
				s.apply(func(dpt *core.DPT) { dpt.Delete(t) })
			}
			deletes++
		}
	})
	state.InsertOffset = insEnd
	state.DeleteOffset = delEnd
	e.noteStreamRejected(rejected)
	return inserts, deletes, rejected
}

// Follow tails the source broker until ctx is canceled: it applies newly
// arrived records via SyncContext and polls at the given interval when
// there is nothing to do — the daemon-side consumption loop the paper's
// Kafka deployment runs. It returns the total number of records applied.
func (e *Engine) Follow(ctx context.Context, source *Broker, state *SyncState, interval time.Duration) int {
	return followLoop(ctx, interval, func(ctx context.Context) int {
		return e.SyncContext(ctx, source, state)
	})
}
