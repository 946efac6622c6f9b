package janus

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"janusaqp/internal/core"
)

// ShardBackend is one shard as the scatter-gather Router sees it. *Engine
// is the local backend; a cluster coordinator's slot (an RPC client under
// its retry and failover policy) is the remote one. A backend answers for
// its own shard only — fan-out, merging, and error policy are the router's.
type ShardBackend interface {
	// AnswerPartial resolves and answers req in mergeable form, ignoring
	// MinSyncOffset (the router's concern).
	AnswerPartial(ctx context.Context, req Request) (ShardAnswer, error)
	// InsertBatch applies one hash-routed sub-batch atomically.
	InsertBatch(tuples []Tuple) error
	// DeleteBatch removes one hash-routed id set, reporting ids the shard
	// does not hold through a *BatchIDError beside the removed count.
	DeleteBatch(ids []int64) (int, error)
	// Stats is best-effort: an unreachable remote shard reports zeros.
	Stats() EngineStats
	StatsFor(template string) (TemplateStats, error)
	Template(name string) (Template, bool)
	Templates() []string
}

// ShardAnswer is one backend's AnswerPartial reply: the mergeable partial
// plus the metadata the router folds into the merged Response.
type ShardAnswer struct {
	Partial  core.Partial
	Template string // the synopsis that answered
	// Confidence is the effective level after resolution (SQL can carry its
	// own CONFIDENCE clause) — the z the router merges at; zero means 0.95.
	Confidence      float64
	SampleSize      int
	Population      int64
	CatchUpProgress float64
	// Stages are the backend's own timed stages, set only for a traced
	// request: StageAnswer locally, StageRPC then StageAnswer remotely. The
	// router stamps Shard.
	Stages []TraceStage
}

// Router scatter-gathers over one immutable set of shard backends — the
// single owner of the policy a ShardGroup and a cluster coordinator share.
// Shards are strata: per-shard SUM/COUNT estimates and variances add, AVG
// pools shard means with population weights, MIN/MAX take the extreme of
// extremes (core.MergePartials). When shards fail, the lowest failing
// shard's error reports, wrapped "janus: shard <i>: ..." — deterministic,
// and unknown templates or malformed queries fail identically everywhere.
//
// A backend set either has a follow watermark or it does not. A ShardGroup
// routes a followed broker's records to its shards itself, so its router
// parks Request.MinSyncOffset on the group watermark before the scatter. A
// set built with NewRouter has none — remote shards acknowledge ingest only
// after applying and logging it, so an acknowledged write is readable
// without a wait — and rejects MinSyncOffset with ErrInvalidRequest.
//
// Callers take their own gates (a ShardGroup's write gate, a coordinator's
// ingest and swap gates) around the router's methods.
type Router struct {
	backends []ShardBackend
	follow   *watermark // nil: the set has no follow watermark
	spans    *spanSink  // receives the merge-stage span
}

// NewRouter returns a router over backends (index i serves hash-shard i)
// with no follow watermark.
func NewRouter(backends []ShardBackend) *Router {
	return &Router{backends: backends, spans: new(spanSink)}
}

// shardErr is the one place a shard's failure gets its index.
func shardErr(shard int, err error) error {
	return fmt.Errorf("janus: shard %d: %w", shard, err)
}

// firstShardErr reports the lowest failing shard, or nil.
func firstShardErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return shardErr(i, err)
		}
	}
	return nil
}

// fanOut runs fn(i) for every i in [0,n) concurrently and waits for all.
// Shard 0 runs on the calling goroutine: one spawn fewer, and a fresh
// goroutine pays for growing its stack down the RPC path where the caller's
// is already grown.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(0)
	wg.Wait()
}

// fanOutParts runs fn over every non-empty part concurrently and waits.
func fanOutParts[T any](parts [][]T, fn func(i int, sub []T)) {
	var wg sync.WaitGroup
	for i, sub := range parts {
		if len(sub) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, sub)
		}()
	}
	wg.Wait()
}

// splitIDsByShard is SplitByShard for deletions.
func splitIDsByShard(ids []int64, shards int) [][]int64 {
	out := make([][]int64, shards)
	if shards <= 1 {
		out[0] = ids
		return out
	}
	for _, id := range ids {
		i := ShardIndex(id, shards)
		out[i] = append(out[i], id)
	}
	return out
}

// Do answers one request by scatter-gather: fan it to every backend in
// parallel and merge the per-shard partials into one estimate with a
// combined confidence interval. began is when the caller started preparing
// the request; a traced request reports the time since as StageResolve.
func (r *Router) Do(ctx context.Context, req Request, began time.Time) (Response, error) {
	// Reject a malformed request here, not after K round trips under a
	// "shard 0:" prefix.
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	// Trace stamps are contiguous — [began,resolved] resolve, [resolved,
	// start] syncWait, [start,scattered] scatter, [scattered,·] merge — so
	// the group-level stage durations sum exactly to Elapsed. None are
	// taken when tracing is off.
	var resolved time.Time
	if req.Trace {
		resolved = time.Now()
	}
	if req.MinSyncOffset > 0 {
		if r.follow == nil {
			return Response{}, fmt.Errorf("janus: %w: MinSyncOffset does not apply to shards without a follow watermark (their ingest acks are synchronous)", ErrInvalidRequest)
		}
		if err := r.follow.wait(ctx, req.MinSyncOffset); err != nil {
			return Response{}, err
		}
	}
	start := time.Now()
	n := len(r.backends)
	answers := make([]ShardAnswer, n)
	errs := make([]error, n)
	fanOut(n, func(i int) { answers[i], errs[i] = r.backends[i].AnswerPartial(ctx, req) })
	var scattered time.Time
	if req.Trace {
		scattered = time.Now()
	}
	if err := firstShardErr(errs); err != nil {
		return Response{}, err
	}
	msp := r.spans.start()
	resp, err := mergeAnswers(answers)
	if err != nil {
		return Response{}, err
	}
	r.spans.end(StageMerge, -1, msp)
	resp.Elapsed = time.Since(start)
	if req.Trace {
		resolveDur := resolved.Sub(began)
		scatterDur := scattered.Sub(start)
		mergeDur := time.Since(scattered)
		resp.Elapsed = resolveDur + scatterDur + mergeDur
		first := answers[0]
		trace := make([]TraceStage, 0, n*len(first.Stages)+4)
		trace = append(trace, TraceStage{Stage: StageResolve, Shard: -1, Dur: resolveDur})
		if req.MinSyncOffset > 0 {
			trace = append(trace, TraceStage{Stage: StageSyncWait, Shard: -1, Dur: start.Sub(resolved)})
		}
		trace = append(trace, TraceStage{Stage: StageScatter, Shard: -1, Dur: scatterDur})
		// Backend stages list stage-major: every shard's first stage, then
		// every shard's second. Which stages a shard reports is the
		// backend's business, not a branch here.
		for s := range first.Stages {
			for i, a := range answers {
				if s < len(a.Stages) {
					st := a.Stages[s]
					st.Shard = i
					trace = append(trace, st)
				}
			}
		}
		resp.Trace = append(trace, TraceStage{Stage: StageMerge, Shard: -1, Dur: mergeDur})
	}
	return resp, nil
}

// mergeAnswers folds per-shard answers into one Response: the partials
// into the Result (core.MergePartials, at the level shard 0 resolved), the
// metadata by sum and minimum. It is the gather half of every answer — a
// Router's over K shards, and an Engine's own over its one.
func mergeAnswers(answers []ShardAnswer) (Response, error) {
	first := answers[0]
	parts := make([]core.Partial, len(answers))
	resp := Response{Template: first.Template, CatchUpProgress: 1}
	for i, a := range answers {
		if a.Template != first.Template {
			return Response{}, fmt.Errorf("janus: shard %d resolved template %q, shard 0 resolved %q: shard registrations have diverged",
				i, a.Template, first.Template)
		}
		parts[i] = a.Partial
		resp.SampleSize += a.SampleSize
		resp.Population += a.Population
		// The merged answer is only as caught up as its least caught-up
		// shard — the conservative bound a dashboard should see.
		resp.CatchUpProgress = min(resp.CatchUpProgress, a.CatchUpProgress)
	}
	var err error
	resp.Result, err = core.MergePartials(parts, first.Confidence)
	return resp, err
}

// InsertBatch hash-partitions the batch and applies each shard's sub-batch
// in parallel. Each sub-batch is atomic on its shard, not across shards: a
// failing shard's sub-batch is rejected whole while the others' land.
// Duplicate ids — within the batch or against live rows — always collide on
// their home shard, so validation loses nothing to sharding. An empty batch
// is a no-op. acked, when non-nil, is called once every shard has answered,
// with each sub-batch its shard acknowledged.
func (r *Router) InsertBatch(tuples []Tuple, acked func(sub []Tuple)) error {
	if len(tuples) == 0 {
		return nil
	}
	parts := SplitByShard(tuples, len(r.backends))
	errs := make([]error, len(parts))
	fanOutParts(parts, func(i int, sub []Tuple) { errs[i] = r.backends[i].InsertBatch(sub) })
	if acked != nil {
		for i, sub := range parts {
			if errs[i] == nil && len(sub) > 0 {
				acked(sub)
			}
		}
	}
	return firstShardErr(errs)
}

// DeleteBatch routes each id to its home shard and applies the per-shard
// deletions in parallel, returning the total number removed. Ids no shard
// holds are reported through one combined *BatchIDError (sorted), exactly
// like a single engine's DeleteBatch. An empty batch is a no-op.
func (r *Router) DeleteBatch(ids []int64) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	parts := splitIDsByShard(ids, len(r.backends))
	counts := make([]int, len(parts))
	errs := make([]error, len(parts))
	fanOutParts(parts, func(i int, sub []int64) { counts[i], errs[i] = r.backends[i].DeleteBatch(sub) })
	// Sum every shard's count before inspecting errors: a failing shard
	// does not undo the deletions its peers already applied, and the total
	// must say so even when an error is returned alongside it.
	total := 0
	for _, n := range counts {
		total += n
	}
	var missing []int64
	for i, err := range errs {
		var b *BatchIDError
		switch {
		case err == nil:
		case errors.As(err, &b):
			missing = append(missing, b.IDs...)
		default:
			return total, shardErr(i, err)
		}
	}
	if len(missing) > 0 {
		slices.Sort(missing)
		return total, &BatchIDError{IDs: missing}
	}
	return total, nil
}

// Stats gathers and merges every shard's engine stats (MergeShardStats); a
// set with a follow watermark reports it as the synced insert offset.
func (r *Router) Stats() EngineStats {
	parts := make([]EngineStats, len(r.backends))
	fanOut(len(parts), func(i int) { parts[i] = r.backends[i].Stats() })
	out := MergeShardStats(parts)
	if r.follow != nil {
		out.SyncedInsertOffset = r.follow.offsets().InsertOffset
	}
	return out
}

// StatsFor gathers and merges one template's stats from every shard
// (mergeShardTemplateStats).
func (r *Router) StatsFor(template string) (TemplateStats, error) {
	parts := make([]TemplateStats, len(r.backends))
	errs := make([]error, len(parts))
	fanOut(len(parts), func(i int) { parts[i], errs[i] = r.backends[i].StatsFor(template) })
	if err := firstShardErr(errs); err != nil {
		return TemplateStats{}, err
	}
	return mergeShardTemplateStats(parts), nil
}

// Template returns the declaration of the named template. Registrations
// are identical on every shard by construction, so shard 0 answers.
func (r *Router) Template(name string) (Template, bool) { return r.backends[0].Template(name) }

// Templates lists the registered template names (shard 0's, as above).
func (r *Router) Templates() []string { return r.backends[0].Templates() }
