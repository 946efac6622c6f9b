package janus

import (
	"sync/atomic"
	"time"
)

// Query-lifecycle observability: a Request with Trace set gets back a
// per-stage timing breakdown in Response.Trace, and an Engine (or every
// shard of a ShardGroup) can carry a SpanObserver that receives the
// durations of engine-internal work — ingest batches, trigger evaluation,
// re-initialization, checkpoint encoding — for export as
// labeled metrics. Both are strictly pay-for-use: an untraced request
// takes the exact pre-existing path, and an engine with no observer pays
// one atomic load per instrumented section.

// Trace stage names, as they appear in TraceStage.Stage and on the wire.
const (
	// StageResolve is request validation plus SQL compilation / template
	// resolution.
	StageResolve = "resolve"
	// StageSyncWait is the Request.MinSyncOffset watermark wait. It is
	// reported in the trace but excluded from Response.Elapsed, which by
	// contract measures answering time net of any sync wait.
	StageSyncWait = "syncWait"
	// StageAnswer is the synopsis answer: the whole in-memory computation
	// on a single engine (Shard -1), or one shard's partial answer inside
	// a scatter (Shard >= 0; these overlap in wall time and are detail
	// under StageScatter, not additive with it).
	StageAnswer = "answer"
	// StageScatter is the wall-clock time of a ShardGroup's whole fan-out:
	// goroutine spawn through the last shard's partial.
	StageScatter = "scatter"
	// StageMerge is combining per-shard partials into one estimate.
	StageMerge = "merge"
	// StageRPC is one shard's full remote round-trip inside a cluster
	// coordinator's scatter — encode, network, shard answer, decode. Like
	// per-shard StageAnswer entries these overlap in wall time and are
	// detail under StageScatter (Shard >= 0), not additive with it.
	StageRPC = "rpc"
)

// Engine/store span names delivered to a SpanObserver.
const (
	SpanInsertBatch     = "insert_batch"
	SpanDeleteBatch     = "delete_batch"
	SpanTriggerEval     = "trigger_eval"
	SpanReinit          = "reinit"
	SpanStreamApply     = "stream_apply"
	SpanShardAnswer     = "shard_answer"
	SpanCheckpointSave  = "checkpoint_encode"
	SpanCheckpointFsync = "checkpoint_fsync"
	SpanCompactRotate   = "compact_rotate"

	// Reshard spans are emitted by the group (shard -1): the archive copy
	// into the target layout, the target synopsis builds, and the
	// write-gated cutover window (the pause writers observe).
	SpanReshardCopy    = "reshard_copy"
	SpanReshardBuild   = "reshard_build"
	SpanReshardCutover = "reshard_cutover"

	// SpanCatchUp is never emitted: catch-up runs inside each synopsis
	// build (within SpanReinit on a re-initialization). The name stays
	// because the benchmark module under bench/ reads it.
	SpanCatchUp = "catchup"
)

// TraceStage is one timed stage of a traced request. Shard is the shard
// index for per-shard stages and -1 for group-level stages. For any traced
// response, the stages with Shard < 0 and Stage != StageSyncWait sum to
// exactly Response.Elapsed; per-shard StageAnswer entries run concurrently
// and are not part of that sum.
type TraceStage struct {
	Stage string
	Shard int
	Dur   time.Duration
}

// SpanObserver receives the duration of one completed engine-internal
// span. shard is the emitting shard's index in its group (0 for an
// ungrouped engine). Implementations must be safe for concurrent calls
// and should be cheap — they run inline on ingest and maintenance paths.
type SpanObserver func(span string, shard int, d time.Duration)

// spanSink is the atomically swappable observer slot embedded in Engine
// and Store.
type spanSink struct {
	obs atomic.Pointer[SpanObserver]
}

// set installs fn (nil clears).
func (s *spanSink) set(fn SpanObserver) {
	if fn == nil {
		s.obs.Store(nil)
		return
	}
	s.obs.Store(&fn)
}

// start returns a span start time, or the zero time when no observer is
// installed — the one atomic load an uninstrumented hot path pays.
func (s *spanSink) start() time.Time {
	if s.obs.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

// end emits the span if start came from an installed observer. The
// observer is re-loaded so a swap between start and end cannot emit
// through a cleared slot.
func (s *spanSink) end(span string, shard int, start time.Time) {
	if start.IsZero() {
		return
	}
	if p := s.obs.Load(); p != nil {
		(*p)(span, shard, time.Since(start))
	}
}

// SetSpanObserver installs fn to receive engine-internal span durations
// (nil uninstalls). The engine emits shard index 0; a ShardGroup installs
// a wrapper that stamps each shard's true index.
func (e *Engine) SetSpanObserver(fn SpanObserver) { e.spans.set(fn) }

// SetSpanObserver installs fn on every shard, stamping each emission with
// the shard's index in the group, and keeps a group-level copy for the
// group's own merge-stage emissions; a reshard cutover reads it back from
// there to instrument the new layout's engines identically.
func (g *ShardGroup) SetSpanObserver(fn SpanObserver) {
	g.spans.set(fn)
	instrumentShards(g.engines(), fn)
}

// instrumentShards installs fn on each engine with its index stamped (nil
// uninstalls) — shared by SetSpanObserver and the reshard cutover.
func instrumentShards(shards []*Engine, fn SpanObserver) {
	for i, e := range shards {
		if fn == nil {
			e.SetSpanObserver(nil)
			continue
		}
		i := i
		e.SetSpanObserver(func(span string, _ int, d time.Duration) { fn(span, i, d) })
	}
}
